//! Memory-access observatory: prefetch-efficacy attribution, page-heat
//! and working-set tracking, and deterministic exports.
//!
//! The runtime can only act on prefetching and placement policy if it
//! can *measure* them. This module is the measurement substrate:
//!
//! - **Prefetch fates** — every prefetched page is classified exactly
//!   once as a *hit* (demand access after the line arrived), *late*
//!   (a demand access raced the in-flight prefetch and only waited the
//!   residual fetch time; the head start is credited as saved
//!   latency), or *wasted* (evicted, failed, or still unaccessed at
//!   run end). Records still in flight at run end are counted as
//!   `inflight_at_end`, giving the exact conservation identity
//!   `issued == hits + lates + wasted + inflight_at_end` per detector
//!   class and in total.
//! - **Page heat** — a SpaceSaving top-K heavy-hitter sketch with
//!   exponential per-window decay (`w ← w · d^Δwindows`), plus a
//!   bucketed address-range histogram absorbing the weight of pages
//!   displaced from the sketch. The sketch's minimum slot sits at the
//!   root of an indexed min-heap, so a touch costs `O(log K)`.
//! - **Working set & heatmap** — per-window distinct-page counts and a
//!   `page-bucket × time-window → touches` matrix, both capped at
//!   [`MemObsConfig::max_windows`] rows with explicit drop accounting
//!   ([`MemObservatory::dropped`]) instead of silent truncation.
//! - **Shard heat shares** — decayed per-shard touch weights exposing
//!   placement skew (`max/mean` ratio) as a time series.
//!
//! Per-page state (last window touched, sketch slot) lives in one dense
//! 8-byte record per page of the footprint, allocated at construction,
//! so a touch does no hashing.
//!
//! Everything here is deterministic: iteration happens over vectors or
//! sorted snapshots, hashing uses the seed-free Fx tables, and floats
//! are serialised at fixed precision — equal-seed runs produce
//! byte-identical [`MemReport`] serialisations.

use desim::fxhash::FxHashMap;
use std::fmt::Write as _;

/// Detector class a prefetch is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchClass {
    /// Sequential readahead (`SeqDetector`).
    Readahead = 0,
    /// Leap majority-trend detection (`LeapDetector`).
    Leap = 1,
    /// The speculative next-page fallback taken when the detector has
    /// no pattern.
    Speculative = 2,
}

/// Display names for the three classes, indexed by discriminant.
pub const CLASS_NAMES: [&str; 3] = ["readahead", "leap", "speculative"];

/// Observatory configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemObsConfig {
    /// Width of a heat/working-set window in virtual nanoseconds.
    pub heat_window_ns: u64,
    /// Heavy-hitter slots in the heat sketch.
    pub top_k: usize,
    /// Per-window decay multiplier applied to sketch weights, the rest
    /// histogram and shard heat (`0 < d <= 1`).
    pub heat_decay: f64,
    /// Address-range buckets of the heatmap and rest histogram.
    pub heatmap_buckets: usize,
    /// Cap on recorded window rows (heatmap + working-set series);
    /// rows beyond the cap are counted in `obs_dropped`.
    pub max_windows: usize,
    /// Cap on simultaneously tracked prefetch records; overflow issues
    /// are conservatively classified wasted and counted dropped.
    pub max_tracked: usize,
    /// Distinct stride deltas kept in the fingerprint; the rest fold
    /// into an explicit `other` bin.
    pub max_strides: usize,
}

impl Default for MemObsConfig {
    fn default() -> MemObsConfig {
        MemObsConfig {
            heat_window_ns: 1_000_000, // 1 ms
            top_k: 64,
            heat_decay: 0.5,
            heatmap_buckets: 64,
            max_windows: 4096,
            max_tracked: 1 << 20,
            max_strides: 64,
        }
    }
}

/// Fate counters for one detector class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FateCounters {
    /// Prefetches issued (including ones that later fail).
    pub issued: u64,
    /// Demand access found the page already arrived.
    pub hits: u64,
    /// Demand access raced the in-flight prefetch.
    pub lates: u64,
    /// Evicted, failed, or unaccessed by run end.
    pub wasted: u64,
    /// Still in flight when the run ended.
    pub inflight_at_end: u64,
    /// Head-start nanoseconds credited to late prefetches.
    pub late_saved_ns: u64,
}

impl FateCounters {
    /// Exact conservation identity for this class.
    pub fn holds(&self) -> bool {
        self.issued == self.hits + self.lates + self.wasted + self.inflight_at_end
    }
}

struct PfRec {
    class: u8,
    issued_ns: u64,
    arrived: bool,
}

struct HeatSlot {
    page: u64,
    /// Index of this slot's entry in the sketch's min-heap, which
    /// holds the slot's weight.
    heap_pos: u32,
}

/// A sketch min-heap entry: a slot's weight bits above its slot index.
/// Weights are finite and non-negative, whose IEEE-754 bit patterns
/// order like their values, so integer order is `(weight, slot index)`
/// order — the slot a linear scan for the first minimum weight picks
/// sorts first — and one integer compare decides it without a branch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey(u128);

impl HeapKey {
    #[inline]
    fn new(weight: f64, slot: u32) -> HeapKey {
        debug_assert!(weight >= 0.0 && weight.is_finite());
        HeapKey(u128::from(weight.to_bits()) << 32 | u128::from(slot))
    }

    #[inline]
    fn weight(self) -> f64 {
        f64::from_bits((self.0 >> 32) as u64)
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }
}

/// [`PageRec::slot`] of a page the sketch does not track.
const NO_SLOT: u32 = u32::MAX;

/// Dense per-page observatory state.
#[derive(Clone, Copy)]
struct PageRec {
    /// Last window the page was touched in, plus one (0 = never).
    seen: u32,
    /// Heat-sketch slot tracking the page, or [`NO_SLOT`].
    slot: u32,
}

impl PageRec {
    const UNSEEN: PageRec = PageRec {
        seen: 0,
        slot: NO_SLOT,
    };
}

/// One closed observation window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRow {
    /// Window index (`start_ns = idx * heat_window_ns`).
    pub idx: u64,
    /// Distinct pages touched in the window.
    pub ws_pages: u64,
    /// Shard heat skew (`max/mean` share) at window close.
    pub skew: f64,
    /// Cumulative strict prefetch hit-rate at window close.
    pub hit_rate: f64,
    /// Touches per address bucket inside the window.
    pub buckets: Vec<u64>,
}

/// Live observatory state; one per enabled run.
pub struct MemObservatory {
    cfg: MemObsConfig,
    total_pages: u64,
    // Prefetch-fate attribution.
    pf: FxHashMap<u64, PfRec>,
    fates: [FateCounters; 3],
    // Heat sketch (SpaceSaving) + displaced-weight histogram. `heap`
    // is a min-heap over the slots' weights.
    slots: Vec<HeatSlot>,
    heap: Vec<HeapKey>,
    rest_hist: Vec<f64>,
    // Per-page records, indexed by page.
    pages: Vec<PageRec>,
    distinct: u64,
    // Windows.
    cur_window: u64,
    ws_cur: u64,
    hm_cur: Vec<u64>,
    shard_cur: Vec<u64>,
    shard_heat: Vec<f64>,
    shares: Vec<f64>,
    skew: f64,
    ws_last: u64,
    rows: Vec<WindowRow>,
    // Stride fingerprint.
    strides: FxHashMap<i64, u64>,
    stride_other: u64,
    touches: u64,
    dropped: u64,
}

impl MemObservatory {
    /// Creates an observatory over a `total_pages` footprint spread
    /// across `shards` rails.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero window, no buckets,
    /// no slots, or a decay outside `(0, 1]`).
    pub fn new(cfg: MemObsConfig, total_pages: u64, shards: usize) -> MemObservatory {
        assert!(cfg.heat_window_ns > 0, "zero-width heat window");
        assert!(cfg.heatmap_buckets > 0 && cfg.top_k > 0, "empty sketch");
        assert!(cfg.top_k < NO_SLOT as usize, "sketch too large");
        assert!(
            cfg.heat_decay > 0.0 && cfg.heat_decay <= 1.0,
            "decay outside (0, 1]"
        );
        MemObservatory {
            cfg,
            total_pages: total_pages.max(1),
            pf: FxHashMap::default(),
            fates: [FateCounters::default(); 3],
            slots: Vec::with_capacity(cfg.top_k),
            heap: Vec::with_capacity(cfg.top_k),
            rest_hist: vec![0.0; cfg.heatmap_buckets],
            pages: vec![PageRec::UNSEEN; total_pages.max(1) as usize],
            distinct: 0,
            cur_window: 0,
            ws_cur: 0,
            hm_cur: vec![0; cfg.heatmap_buckets],
            shard_cur: vec![0; shards.max(1)],
            shard_heat: vec![0.0; shards.max(1)],
            shares: vec![0.0; shards.max(1)],
            skew: 0.0,
            ws_last: 0,
            rows: Vec::new(),
            strides: FxHashMap::default(),
            stride_other: 0,
            touches: 0,
            dropped: 0,
        }
    }

    #[inline]
    fn bucket(&self, page: u64) -> usize {
        let b = self.cfg.heatmap_buckets as u64;
        ((page.min(self.total_pages - 1) * b) / self.total_pages) as usize
    }

    /// Closes every window before `w` and advances to it.
    fn roll_to(&mut self, w: u64) {
        debug_assert!(w > self.cur_window);
        let gap = w - self.cur_window;
        // Fold the closing window's shard touches into the decayed
        // heat, then age everything across the (possibly idle) gap.
        let d = self.cfg.heat_decay;
        let total: f64 = {
            for (h, c) in self.shard_heat.iter_mut().zip(&self.shard_cur) {
                *h = *h * d + *c as f64;
            }
            self.shard_heat.iter().sum()
        };
        if total > 0.0 {
            let n = self.shard_heat.len() as f64;
            let mut max = 0.0f64;
            for (s, h) in self.shard_heat.iter().enumerate() {
                let share = h / total;
                self.shares[s] = share;
                max = max.max(share);
            }
            self.skew = max * n;
        }
        if gap > 1 {
            let age = d.powi((gap - 1) as i32);
            for h in &mut self.shard_heat {
                *h *= age;
            }
        }
        let age_all = d.powi(gap as i32);
        for k in &mut self.heap {
            *k = HeapKey::new(k.weight() * age_all, k.slot());
        }
        // Scaling can round distinct weights together (or to zero), so
        // the heap order is rebuilt rather than assumed.
        self.rebuild_heap();
        for r in &mut self.rest_hist {
            *r *= age_all;
        }
        self.ws_last = self.ws_cur;
        if self.ws_cur > 0 || self.hm_cur.iter().any(|&c| c > 0) {
            if self.rows.len() < self.cfg.max_windows {
                self.rows.push(WindowRow {
                    idx: self.cur_window,
                    ws_pages: self.ws_cur,
                    skew: self.skew,
                    hit_rate: self.hit_rate(),
                    buckets: std::mem::replace(&mut self.hm_cur, vec![0; self.cfg.heatmap_buckets]),
                });
            } else {
                self.dropped += 1;
                self.hm_cur.iter_mut().for_each(|c| *c = 0);
            }
        }
        self.ws_cur = 0;
        self.shard_cur.iter_mut().for_each(|c| *c = 0);
        self.cur_window = w;
    }

    /// Books one completed demand access. Returns `true` when one or
    /// more windows closed (gauge values are fresh).
    pub fn on_touch(&mut self, page: u64, shard: usize, now_ns: u64, delta: Option<i64>) -> bool {
        let w = now_ns / self.cfg.heat_window_ns;
        let rolled = w > self.cur_window;
        if rolled {
            self.roll_to(w);
        }
        self.touches += 1;
        let stamp = u32::try_from(w + 1).expect("heat window index overflows u32");
        if page >= self.pages.len() as u64 {
            // Beyond the footprint: grow the table rather than alias.
            self.pages.resize(page as usize + 1, PageRec::UNSEEN);
        }
        let rec = &mut self.pages[page as usize];
        // Heat sketch: bump a tracked slot, fill a free one, or
        // displace the minimum-weight slot (ties broken by the lowest
        // slot index, which is deterministic).
        let slot = rec.slot;
        let seen = std::mem::replace(&mut rec.seen, stamp);
        if slot != NO_SLOT {
            let at = self.slots[slot as usize].heap_pos as usize;
            self.heap[at] = HeapKey::new(self.heap[at].weight() + 1.0, slot);
            self.sift_down(at);
        } else if self.slots.len() < self.cfg.top_k {
            let i = self.slots.len() as u32;
            rec.slot = i;
            self.slots.push(HeatSlot { page, heap_pos: i });
            self.heap.push(HeapKey::new(1.0, i));
            self.sift_up(i as usize);
        } else {
            let min = self.heap[0];
            rec.slot = min.slot();
            let old_page = std::mem::replace(&mut self.slots[min.slot() as usize].page, page);
            self.heap[0] = HeapKey::new(min.weight() + 1.0, min.slot());
            self.sift_down(0);
            self.pages[old_page as usize].slot = NO_SLOT;
            let b = self.bucket(old_page);
            self.rest_hist[b] += min.weight();
        }
        let b = self.bucket(page);
        self.hm_cur[b] += 1;
        if let Some(c) = self.shard_cur.get_mut(shard) {
            *c += 1;
        }
        if seen == 0 {
            self.distinct += 1;
        }
        // Touches can be stamped behind the current window; a page
        // already seen in a later window is not counted again.
        if seen < stamp {
            self.ws_cur += 1;
        }
        if let Some(d) = delta {
            if let Some(c) = self.strides.get_mut(&d) {
                *c += 1;
            } else if self.strides.len() < self.cfg.max_strides {
                self.strides.insert(d, 1);
            } else {
                self.stride_other += 1;
            }
        }
        rolled
    }

    #[inline]
    fn heap_set(&mut self, at: usize, key: HeapKey) {
        self.heap[at] = key;
        self.slots[key.slot() as usize].heap_pos = at as u32;
    }

    fn sift_up(&mut self, mut at: usize) {
        let key = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if key > self.heap[parent] {
                break;
            }
            self.heap_set(at, self.heap[parent]);
            at = parent;
        }
        self.heap_set(at, key);
    }

    fn sift_down(&mut self, mut at: usize) {
        let key = self.heap[at];
        let n = self.heap.len();
        loop {
            let l = 2 * at + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n {
                l + usize::from(self.heap[r] < self.heap[l])
            } else {
                l
            };
            if key < self.heap[c] {
                break;
            }
            self.heap_set(at, self.heap[c]);
            at = c;
        }
        self.heap_set(at, key);
    }

    /// Re-establishes the heap order after every weight changed.
    fn rebuild_heap(&mut self) {
        for at in (0..self.heap.len() / 2).rev() {
            self.sift_down(at);
        }
    }

    /// Records a prefetch issuance. When the record table is full the
    /// prefetch is conservatively booked `issued + wasted` at once and
    /// counted dropped, keeping the conservation identity exact.
    pub fn on_prefetch_issued(&mut self, page: u64, class: PrefetchClass, now_ns: u64) {
        let f = &mut self.fates[class as usize];
        f.issued += 1;
        if self.pf.len() >= self.cfg.max_tracked {
            f.wasted += 1;
            self.dropped += 1;
            return;
        }
        let prev = self.pf.insert(
            page,
            PfRec {
                class: class as u8,
                issued_ns: now_ns,
                arrived: false,
            },
        );
        debug_assert!(prev.is_none(), "prefetch of a page already tracked");
        if let Some(p) = prev {
            // Defensive: never lose a record — the displaced prefetch
            // was never consumed.
            self.fates[p.class as usize].wasted += 1;
        }
    }

    /// Marks a tracked prefetch's data as arrived (fetch completed).
    pub fn on_prefetch_arrived(&mut self, page: u64) {
        if let Some(r) = self.pf.get_mut(&page) {
            r.arrived = true;
        }
    }

    /// Classifies a tracked prefetch as a hit. Returns whether a
    /// record existed.
    pub fn classify_hit(&mut self, page: u64) -> bool {
        match self.pf.remove(&page) {
            Some(r) => {
                self.fates[r.class as usize].hits += 1;
                true
            }
            None => false,
        }
    }

    /// Classifies a tracked prefetch as late: a demand access at
    /// `now_ns` raced the still-in-flight line. The head start since
    /// issue is credited as saved latency.
    pub fn classify_late(&mut self, page: u64, now_ns: u64) -> bool {
        match self.pf.remove(&page) {
            Some(r) => {
                let f = &mut self.fates[r.class as usize];
                f.lates += 1;
                f.late_saved_ns += now_ns.saturating_sub(r.issued_ns);
                true
            }
            None => false,
        }
    }

    /// Classifies a tracked prefetch as wasted (evicted unaccessed or
    /// failed terminally). Returns whether a record existed.
    pub fn classify_wasted(&mut self, page: u64) -> bool {
        match self.pf.remove(&page) {
            Some(r) => {
                self.fates[r.class as usize].wasted += 1;
                true
            }
            None => false,
        }
    }

    /// Rows (ws/heatmap/series) and records dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Distinct pages touched in the last closed window.
    pub fn ws_last(&self) -> u64 {
        self.ws_last
    }

    /// Shard heat skew (`max/mean` share) as of the last closed window.
    pub fn heat_skew(&self) -> f64 {
        self.skew
    }

    /// Decayed heat share of shard `s` as of the last closed window.
    pub fn shard_share(&self, s: usize) -> f64 {
        self.shares.get(s).copied().unwrap_or(0.0)
    }

    /// Cumulative strict hit-rate over classified prefetches.
    pub fn hit_rate(&self) -> f64 {
        let (mut hits, mut done) = (0u64, 0u64);
        for f in &self.fates {
            hits += f.hits;
            done += f.hits + f.lates + f.wasted;
        }
        if done == 0 {
            0.0
        } else {
            hits as f64 / done as f64
        }
    }

    /// Closes the run at `end_ns`: flushes the open window, sweeps the
    /// remaining records (arrived → wasted, in flight →
    /// `inflight_at_end`) and freezes the report.
    pub fn finish(mut self, end_ns: u64) -> MemReport {
        let w = end_ns / self.cfg.heat_window_ns + 1;
        if w > self.cur_window {
            self.roll_to(w);
        }
        // Sweep in deterministic page order.
        let mut leftover: Vec<(u64, bool, u8)> = self
            .pf
            .iter()
            .map(|(&p, r)| (p, r.arrived, r.class))
            .collect();
        leftover.sort_unstable();
        for (_, arrived, class) in leftover {
            let f = &mut self.fates[class as usize];
            if arrived {
                f.wasted += 1;
            } else {
                f.inflight_at_end += 1;
            }
        }
        let mut heat_top: Vec<(u64, f64)> = self
            .heap
            .iter()
            .map(|k| (self.slots[k.slot() as usize].page, k.weight()))
            .collect();
        heat_top.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut strides: Vec<(i64, u64)> = self.strides.iter().map(|(&d, &c)| (d, c)).collect();
        strides.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        MemReport {
            window_ns: self.cfg.heat_window_ns,
            heatmap_buckets: self.cfg.heatmap_buckets,
            total_pages: self.total_pages,
            touches: self.touches,
            distinct_pages: self.distinct,
            classes: self.fates,
            heat_top,
            rest_hist: self.rest_hist,
            rows: self.rows,
            strides,
            stride_other: self.stride_other,
            shard_shares: self.shares,
            heat_skew: self.skew,
            obs_dropped: self.dropped,
        }
    }
}

/// Frozen end-of-run observatory report, serialised into the
/// `"memory"` run-JSON block and the heatmap/fingerprint CSVs.
#[derive(Clone, Debug, PartialEq)]
pub struct MemReport {
    /// Window width used for every series.
    pub window_ns: u64,
    /// Address buckets of the heatmap and rest histogram.
    pub heatmap_buckets: usize,
    /// Page-space size the buckets divide.
    pub total_pages: u64,
    /// Completed demand accesses booked.
    pub touches: u64,
    /// Distinct pages touched over the whole run.
    pub distinct_pages: u64,
    /// Per-class fate counters, indexed by [`PrefetchClass`].
    pub classes: [FateCounters; 3],
    /// Heavy hitters, hottest first (page, decayed weight).
    pub heat_top: Vec<(u64, f64)>,
    /// Decayed weight displaced from the sketch, per address bucket.
    pub rest_hist: Vec<f64>,
    /// Closed windows in time order.
    pub rows: Vec<WindowRow>,
    /// Stride fingerprint, most frequent first (delta pages, count).
    pub strides: Vec<(i64, u64)>,
    /// Stride observations beyond the tracked deltas.
    pub stride_other: u64,
    /// Final decayed heat share per shard.
    pub shard_shares: Vec<f64>,
    /// Final `max/mean` shard heat skew.
    pub heat_skew: f64,
    /// Rows/records dropped by bounded-memory caps.
    pub obs_dropped: u64,
}

impl MemReport {
    /// Totals over all detector classes.
    pub fn totals(&self) -> FateCounters {
        let mut t = FateCounters::default();
        for c in &self.classes {
            t.issued += c.issued;
            t.hits += c.hits;
            t.lates += c.lates;
            t.wasted += c.wasted;
            t.inflight_at_end += c.inflight_at_end;
            t.late_saved_ns += c.late_saved_ns;
        }
        t
    }

    /// Exact conservation identity, per class and in total.
    pub fn holds(&self) -> bool {
        self.classes.iter().all(FateCounters::holds) && self.totals().holds()
    }

    /// Cumulative strict hit-rate (`hits / classified`).
    pub fn hit_rate(&self) -> f64 {
        let t = self.totals();
        let done = t.hits + t.lates + t.wasted;
        if done == 0 {
            0.0
        } else {
            t.hits as f64 / done as f64
        }
    }

    /// Mean working-set pages over closed windows.
    pub fn ws_mean(&self) -> f64 {
        if self.rows.is_empty() {
            0.0
        } else {
            self.rows.iter().map(|r| r.ws_pages as f64).sum::<f64>() / self.rows.len() as f64
        }
    }

    /// Peak working-set pages over closed windows.
    pub fn ws_peak(&self) -> u64 {
        self.rows.iter().map(|r| r.ws_pages).max().unwrap_or(0)
    }

    /// Deterministic JSON for the `"memory"` run-JSON block.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        let t = self.totals();
        let _ = write!(
            out,
            "{{\"window_ns\":{},\"touches\":{},\"distinct_pages\":{},\"total_pages\":{}",
            self.window_ns, self.touches, self.distinct_pages, self.total_pages
        );
        let _ = write!(
            out,
            ",\"prefetch\":{{\"issued\":{},\"hits\":{},\"lates\":{},\"wasted\":{},\
             \"inflight_at_end\":{},\"late_saved_ns\":{},\"hit_rate\":{:.6},\"conserved\":{}",
            t.issued,
            t.hits,
            t.lates,
            t.wasted,
            t.inflight_at_end,
            t.late_saved_ns,
            self.hit_rate(),
            self.holds()
        );
        out.push_str(",\"by_detector\":{");
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"issued\":{},\"hits\":{},\"lates\":{},\"wasted\":{},\
                 \"inflight_at_end\":{},\"late_saved_ns\":{}}}",
                CLASS_NAMES[i],
                c.issued,
                c.hits,
                c.lates,
                c.wasted,
                c.inflight_at_end,
                c.late_saved_ns
            );
        }
        out.push_str("}}");
        let _ = write!(
            out,
            ",\"working_set\":{{\"windows\":{},\"mean_pages\":{:.3},\"peak_pages\":{}}}",
            self.rows.len(),
            self.ws_mean(),
            self.ws_peak()
        );
        out.push_str(",\"heat\":{\"top\":[");
        for (i, (page, w)) in self.heat_top.iter().take(16).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"page\":{page},\"weight\":{w:.3}}}");
        }
        let _ = write!(out, "],\"skew\":{:.6},\"shard_shares\":[", self.heat_skew);
        for (i, s) in self.shard_shares.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{s:.6}");
        }
        out.push_str("]}");
        out.push_str(",\"strides\":{\"top\":[");
        for (i, (d, c)) in self.strides.iter().take(16).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"delta\":{d},\"count\":{c}}}");
        }
        let _ = write!(out, "],\"other\":{}}}", self.stride_other);
        let _ = write!(out, ",\"obs_dropped\":{}", self.obs_dropped);
        if self.obs_dropped > 0 {
            let _ = write!(
                out,
                ",\"warning\":\"{} observatory rows/records dropped by bounded-memory caps; \
                 series under-report\"",
                self.obs_dropped
            );
        }
        out.push('}');
        out
    }

    /// Heatmap CSV: one row per non-zero `window × bucket` cell.
    pub fn heatmap_csv(&self) -> String {
        let mut out = String::from("window_start_us,page_bucket,touches\n");
        for r in &self.rows {
            let start_us = r.idx * self.window_ns / 1000;
            for (b, &c) in r.buckets.iter().enumerate() {
                if c > 0 {
                    let _ = writeln!(out, "{start_us},{b},{c}");
                }
            }
        }
        out
    }

    /// Access-shape fingerprint CSV (stride distribution).
    pub fn fingerprint_csv(&self) -> String {
        let mut out = String::from("delta_pages,count\n");
        for (d, c) in &self.strides {
            let _ = writeln!(out, "{d},{c}");
        }
        if self.stride_other > 0 {
            let _ = writeln!(out, "other,{}", self.stride_other);
        }
        out
    }

    /// Perfetto counter events (heat skew, working set, hit-rate) under
    /// the synthetic process `pid`, one sample per closed window.
    pub fn perfetto_counter_events(&self, pid: u64) -> Vec<String> {
        let mut out = Vec::with_capacity(self.rows.len() * 3 + 1);
        out.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"memory\"}}}}"
        ));
        for r in &self.rows {
            let end_ns = (r.idx + 1) * self.window_ns;
            let ts = format!("{:.3}", end_ns as f64 / 1000.0);
            out.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"heat_skew\",\"ts\":{ts},\
                 \"args\":{{\"value\":{:.6}}}}}",
                r.skew
            ));
            out.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"prefetch_hit_rate\",\"ts\":{ts},\
                 \"args\":{{\"value\":{:.6}}}}}",
                r.hit_rate
            ));
            out.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"ws_pages\",\"ts\":{ts},\
                 \"args\":{{\"value\":{}}}}}",
                r.ws_pages
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(pages: u64, shards: usize) -> MemObservatory {
        MemObservatory::new(MemObsConfig::default(), pages, shards)
    }

    #[test]
    fn fates_conserve_across_every_classification_path() {
        let mut o = obs(1000, 1);
        o.on_prefetch_issued(1, PrefetchClass::Readahead, 100);
        o.on_prefetch_issued(2, PrefetchClass::Readahead, 100);
        o.on_prefetch_issued(3, PrefetchClass::Leap, 100);
        o.on_prefetch_issued(4, PrefetchClass::Speculative, 100);
        o.on_prefetch_issued(5, PrefetchClass::Leap, 100);
        o.on_prefetch_arrived(1);
        assert!(o.classify_hit(1));
        assert!(o.classify_late(2, 600));
        o.on_prefetch_arrived(3);
        assert!(o.classify_wasted(3)); // evicted unaccessed
        o.on_prefetch_arrived(4); // arrived, never accessed → sweep wasted
                                  // page 5 stays in flight → inflight_at_end
        let r = o.finish(10_000_000);
        let t = r.totals();
        assert_eq!(
            (t.issued, t.hits, t.lates, t.wasted, t.inflight_at_end),
            (5, 1, 1, 2, 1)
        );
        assert!(r.holds());
        assert_eq!(
            r.classes[PrefetchClass::Readahead as usize].late_saved_ns,
            500
        );
        assert_eq!(r.classes[PrefetchClass::Leap as usize].inflight_at_end, 1);
    }

    #[test]
    fn record_cap_overflow_stays_conserved_and_counts_dropped() {
        let cfg = MemObsConfig {
            max_tracked: 2,
            ..MemObsConfig::default()
        };
        let mut o = MemObservatory::new(cfg, 100, 1);
        for p in 0..5u64 {
            o.on_prefetch_issued(p, PrefetchClass::Readahead, 0);
        }
        let r = o.finish(1);
        assert!(r.holds());
        assert_eq!(r.totals().issued, 5);
        assert_eq!(r.obs_dropped, 3);
        assert!(r.to_json().contains("\"warning\""));
    }

    #[test]
    fn heat_sketch_is_bounded_and_finds_the_heavy_hitter() {
        let cfg = MemObsConfig {
            top_k: 4,
            ..MemObsConfig::default()
        };
        let mut o = MemObservatory::new(cfg, 10_000, 1);
        for i in 0..2_000u64 {
            o.on_touch(7, 0, i, None); // hot page
            o.on_touch(i % 1_000, 0, i, None); // churn
        }
        let r = o.finish(2_000);
        assert_eq!(r.heat_top.len(), 4);
        assert_eq!(r.heat_top[0].0, 7, "hot page must top the sketch");
        assert!(
            r.rest_hist.iter().sum::<f64>() > 0.0,
            "displaced weight lands in the rest"
        );
    }

    #[test]
    fn windows_roll_decay_and_cap() {
        let cfg = MemObsConfig {
            heat_window_ns: 100,
            max_windows: 3,
            ..MemObsConfig::default()
        };
        let mut o = MemObservatory::new(cfg, 64, 2);
        for w in 0..6u64 {
            for i in 0..4 {
                let rolled = o.on_touch(i, (i % 2) as usize, w * 100 + i, None);
                assert_eq!(rolled, w > 0 && i == 0);
            }
        }
        let r = o.finish(600);
        assert_eq!(r.rows.len(), 3, "row cap");
        assert_eq!(r.obs_dropped, 3, "each dropped row is counted");
        assert_eq!(r.rows[0].ws_pages, 4);
        // Two shards touched evenly → no skew.
        assert!((r.heat_skew - 1.0).abs() < 1e-9, "skew {}", r.heat_skew);
        assert!((r.shard_shares[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn skewed_touches_show_dominant_shard() {
        let mut o = obs(1024, 4);
        for i in 0..1_000u64 {
            o.on_touch(i % 16, 0, i * 1_000, None); // all heat on shard 0
        }
        o.on_touch(999, 3, 2_000_000, None);
        let r = o.finish(3_000_000);
        assert!(r.shard_shares[0] > 0.9, "shares {:?}", r.shard_shares);
        assert!(r.heat_skew > 3.5, "skew {}", r.heat_skew);
    }

    #[test]
    fn stride_fingerprint_tracks_deltas_and_overflows_to_other() {
        let cfg = MemObsConfig {
            max_strides: 2,
            ..MemObsConfig::default()
        };
        let mut o = MemObservatory::new(cfg, 1 << 20, 1);
        for i in 0..10u64 {
            o.on_touch(i, 0, i, Some(1));
        }
        o.on_touch(100, 0, 20, Some(-3));
        o.on_touch(200, 0, 21, Some(17)); // over cap → other
        let r = o.finish(100);
        assert_eq!(r.strides[0], (1, 10));
        assert_eq!(r.strides[1], (-3, 1));
        assert_eq!(r.stride_other, 1);
        let csv = r.fingerprint_csv();
        assert!(csv.contains("1,10") && csv.ends_with("other,1\n"));
    }

    #[test]
    fn exports_are_deterministic_and_wellformed() {
        let run = || {
            let mut o = obs(4096, 2);
            for i in 0..500u64 {
                o.on_touch((i * 7) % 512, (i % 2) as usize, i * 2_500, Some(7));
            }
            o.on_prefetch_issued(9, PrefetchClass::Leap, 10);
            o.on_prefetch_arrived(9);
            o.classify_hit(9);
            o.finish(1_250_000)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.heatmap_csv(), b.heatmap_csv());
        assert_eq!(
            a.perfetto_counter_events(3_000_000),
            b.perfetto_counter_events(3_000_000)
        );
        assert!(a.heatmap_csv().lines().count() > 1, "non-empty heatmap");
        assert!(a.to_json().contains("\"conserved\":true"));
        for ev in a.perfetto_counter_events(3_000_000).iter().skip(1) {
            assert!(ev.contains("\"ph\":\"C\""), "{ev}");
        }
    }

    /// The linear-scan SpaceSaving sketch and hash-map working-set
    /// tracking the observatory used before its dense page records and
    /// indexed heap: the differential oracle for [`MemObservatory`].
    struct ScanOracle {
        window_ns: u64,
        decay: f64,
        top_k: usize,
        cur_window: u64,
        slots: Vec<(u64, f64)>,
        slot_of: FxHashMap<u64, usize>,
        rest_hist: Vec<f64>,
        last_seen: FxHashMap<u64, u64>,
        ws_cur: u64,
    }

    impl ScanOracle {
        fn new(cfg: &MemObsConfig) -> ScanOracle {
            ScanOracle {
                window_ns: cfg.heat_window_ns,
                decay: cfg.heat_decay,
                top_k: cfg.top_k,
                cur_window: 0,
                slots: Vec::new(),
                slot_of: FxHashMap::default(),
                rest_hist: vec![0.0; cfg.heatmap_buckets],
                last_seen: FxHashMap::default(),
                ws_cur: 0,
            }
        }

        fn touch(&mut self, o: &MemObservatory, page: u64, now_ns: u64) {
            let w = now_ns / self.window_ns;
            if w > self.cur_window {
                let age_all = self.decay.powi((w - self.cur_window) as i32);
                for s in &mut self.slots {
                    s.1 *= age_all;
                }
                for r in &mut self.rest_hist {
                    *r *= age_all;
                }
                self.ws_cur = 0;
                self.cur_window = w;
            }
            if let Some(&i) = self.slot_of.get(&page) {
                self.slots[i].1 += 1.0;
            } else if self.slots.len() < self.top_k {
                self.slot_of.insert(page, self.slots.len());
                self.slots.push((page, 1.0));
            } else {
                let mut min_i = 0;
                for (i, s) in self.slots.iter().enumerate() {
                    if s.1 < self.slots[min_i].1 {
                        min_i = i;
                    }
                }
                let (old, w0) = self.slots[min_i];
                self.rest_hist[o.bucket(old)] += w0;
                self.slot_of.remove(&old);
                self.slot_of.insert(page, min_i);
                self.slots[min_i] = (page, w0 + 1.0);
            }
            let seen = self.last_seen.insert(page, w);
            if seen != Some(w) && seen.is_none_or(|s| s < w) {
                self.ws_cur += 1;
            }
        }
    }

    fn assert_matches_oracle(o: &MemObservatory, r: &ScanOracle, step: usize) {
        let got: Vec<(u64, u64)> = o
            .slots
            .iter()
            .map(|s| (s.page, o.heap[s.heap_pos as usize].weight().to_bits()))
            .collect();
        let want: Vec<(u64, u64)> = r.slots.iter().map(|s| (s.0, s.1.to_bits())).collect();
        assert_eq!(got, want, "sketch slots diverge at step {step}");
        let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&o.rest_hist),
            bits(&r.rest_hist),
            "rest at step {step}"
        );
        assert_eq!(o.ws_cur, r.ws_cur, "working set at step {step}");
        assert_eq!(
            o.distinct,
            r.last_seen.len() as u64,
            "distinct at step {step}"
        );
        for (at, &key) in o.heap.iter().enumerate() {
            assert_eq!(
                o.slots[key.slot() as usize].heap_pos as usize,
                at,
                "heap index"
            );
            if at > 0 {
                assert!(key > o.heap[(at - 1) / 2], "heap order");
            }
        }
    }

    #[test]
    fn heap_sketch_matches_the_linear_scan() {
        let mut rng = desim::Rng::new(42);
        for decay in [0.5, 0.7, 0.9] {
            for top_k in [1, 3, 8, 64] {
                let cfg = MemObsConfig {
                    heat_window_ns: 1_000,
                    top_k,
                    heat_decay: decay,
                    heatmap_buckets: 16,
                    ..MemObsConfig::default()
                };
                let mut o = MemObservatory::new(cfg, 4_096, 2);
                let mut r = ScanOracle::new(&cfg);
                let mut now = 0u64;
                for step in 0..4_000 {
                    // Mostly short steps inside a window, some multi-
                    // window gaps (decay underflows weights into ties),
                    // and a few touches stamped behind the current one.
                    now = match rng.gen_range(100) {
                        0..=79 => now + rng.gen_range(60),
                        80..=94 => now + rng.gen_range(5_000),
                        95..=97 => now + 1_000 * (20 + rng.gen_range(1_200)),
                        _ => now.saturating_sub(rng.gen_range(2_000)),
                    };
                    // A small hot set (weight ties) plus a long tail.
                    let page = if rng.gen_bool(0.6) {
                        rng.gen_range(2 * top_k as u64 + 1)
                    } else {
                        rng.gen_range(4_096)
                    };
                    o.on_touch(page, (page % 2) as usize, now, None);
                    r.touch(&o, page, now);
                    assert_matches_oracle(&o, &r, step);
                }
            }
        }
    }

    #[test]
    fn ws_counts_distinct_pages_per_window() {
        let cfg = MemObsConfig {
            heat_window_ns: 1_000,
            ..MemObsConfig::default()
        };
        let mut o = MemObservatory::new(cfg, 64, 1);
        for _ in 0..10 {
            o.on_touch(5, 0, 10, None);
        }
        o.on_touch(6, 0, 20, None);
        o.on_touch(5, 0, 1_500, None); // same page, next window → counted again
        let r = o.finish(2_000);
        assert_eq!(r.rows[0].ws_pages, 2);
        assert_eq!(r.rows[1].ws_pages, 1);
        assert_eq!(r.distinct_pages, 2);
        assert_eq!(r.ws_peak(), 2);
    }
}
