//! Per-request span trees, critical-path attribution, and Perfetto export.
//!
//! A [`SpanBuilder`] records one request's life as a tree of spans:
//! a root `request` span covering arrival→reply, structural children
//! (`segment` per worker occupancy, `fault` per page fault, `fetch` per
//! RDMA read with `nic_queue`/`wire` sub-spans), and a gap-free tiling
//! of *phase* spans ([`Stage`]) that partitions the whole end-to-end
//! interval. The tiling is enforced by construction: [`SpanBuilder::phase`]
//! always extends from the builder's cursor (the end of the previous
//! phase) to the given instant, so phase durations sum to the
//! end-to-end latency *exactly* — the invariant the critical-path
//! attribution ([`CriticalPath`]) and the figure-2c/7c breakdowns rest
//! on.
//!
//! The layer is zero-cost when disabled (the runtime holds an
//! `Option<SpanBuilder>` per request; `None` costs one branch per
//! site) and arena-backed when on: completed builders return their
//! buffers to a pool inside [`SpanStore`], so steady-state recording
//! does not allocate. A store that keeps no exemplars never builds a
//! tree at all: its builders accumulate the ten phase sums and the
//! fetch/stall intervals of the overlays, which yields the same
//! [`CriticalPath`] as walking the tree.
//!
//! [`SpanStore`] aggregates completed trees three ways:
//!
//! - per-stage [`Histogram`]s ([`StageStats`]) for p50/p99/p99.9 per
//!   component on every sweep row;
//! - optional per-request [`CriticalPath`] rows (the exact-sum
//!   breakdown the recorder consumes);
//! - a bounded *tail exemplar* set: full span trees are retained only
//!   for requests whose end-to-end latency lands at or above a
//!   configurable percentile of the running distribution, evicting the
//!   fastest retained exemplar first, so memory stays bounded at
//!   saturation while the trees that explain the tail survive.
//!
//! Exporters: [`spans_to_json`] (raw schema, deterministic) and
//! [`perfetto_json`] (Chrome trace event format, loadable in
//! [Perfetto](https://ui.perfetto.dev) — see `docs/MODEL.md` §7).

use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::time::SimTime;

/// Sentinel parent index meaning "no parent" (only the root uses it).
pub const NO_PARENT: u32 = u32::MAX;

/// Number of [`Stage`]s.
pub const NUM_STAGES: usize = 10;

/// Phases: a gap-free partition of each request's end-to-end
/// interval. Every nanosecond of a request's latency is covered by
/// exactly one phase, so the phases sum to the root span's duration by
/// construction. Exported phase spans are named by [`Stage::name`].
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Client↔server network time (request delivery + reply flight).
    Net,
    /// Dispatcher occupancy before the request is queued to a worker.
    Dispatch,
    /// Waiting in a run queue for a worker (initial, resume, or retry).
    Queue,
    /// Handler compute on a worker (includes fault-entry kernel cost).
    Handle,
    /// Busy-wait polling for a fetch completion (wasted CPU).
    Spin,
    /// Parked waiting for a fetch completion (worker reused elsewhere).
    FetchWait,
    /// Blocked on a full QP send queue before the fetch could post.
    QpStall,
    /// Waiting for the reply doorbell/CQE after handler completion.
    TxWait,
    /// Context-switch cost (park + resume halves).
    Ctx,
    /// Reply construction and server-side network stack.
    Reply,
}

impl Stage {
    /// Every stage, in canonical (discriminant) order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::Net,
        Stage::Dispatch,
        Stage::Queue,
        Stage::Handle,
        Stage::Spin,
        Stage::FetchWait,
        Stage::QpStall,
        Stage::TxWait,
        Stage::Ctx,
        Stage::Reply,
    ];

    /// The exported span name.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Net => "net",
            Stage::Dispatch => "dispatch",
            Stage::Queue => "queue",
            Stage::Handle => "handle",
            Stage::Spin => "spin",
            Stage::FetchWait => "fetch_wait",
            Stage::QpStall => "qp_stall",
            Stage::TxWait => "tx_wait",
            Stage::Ctx => "ctx",
            Stage::Reply => "reply",
        }
    }

    /// The stage a phase span's name denotes (`None` for structural
    /// spans).
    fn of_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether the request is blocked on a fetch during this phase —
    /// the stall intervals `fetch_hidden_ns` subtracts.
    fn stalls(self) -> bool {
        matches!(self, Stage::Spin | Stage::FetchWait)
    }
}

/// Structural (non-phase) span names.
pub mod node {
    /// Root span: one per request, arrival→client reply receipt.
    pub const REQUEST: &str = "request";
    /// One contiguous occupancy of a worker core.
    pub const SEGMENT: &str = "segment";
    /// One page fault, entry→resume (or retry chain).
    pub const FAULT: &str = "fault";
    /// One RDMA read, post→completion. `b` is a [`super::shard_qp`]
    /// payload: the QP in the low word and the memnode shard the fetch
    /// routed to in the high word (zero on single-shard runs, which
    /// keeps their span JSON identical to pre-sharding output).
    pub const FETCH: &str = "fetch";
    /// Fetch sub-span: doorbell→NIC engine dispatch.
    pub const NIC_QUEUE: &str = "nic_queue";
    /// Fetch sub-span: NIC engine dispatch→DMA completion (of the
    /// final transmission attempt when the transport retransmitted).
    pub const WIRE: &str = "wire";
    /// Fetch sub-span: RC retransmission window, first dispatch→final
    /// attempt's send (`a` = retransmission count). Only present when
    /// the transport retransmitted.
    pub const RETRANS: &str = "retrans";
    /// Instant marker: the runtime re-issued a failed fetch on the
    /// failover QP (`a` = global memnode id the retry targets — equal
    /// to the replica index on single-shard runs — `b` = attempt).
    pub const FAILOVER: &str = "failover";
}

/// Packs a fetch span's `b` payload: the QP id in the low 32 bits and
/// the memnode shard in the high 32. Shard 0 leaves the payload equal
/// to the bare QP id, so single-shard runs serialise exactly as before
/// sharding existed.
#[inline]
pub fn shard_qp(shard: u64, qp: u64) -> u64 {
    debug_assert!(qp < (1 << 32), "QP id overflows the payload low word");
    (shard << 32) | qp
}

/// One node in a request's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name ([`Stage::name`] or a [`node`] constant).
    pub name: &'static str,
    /// Index of the parent span in the tree, or [`NO_PARENT`].
    pub parent: u32,
    /// Start instant.
    pub start: SimTime,
    /// End instant (`>= start`).
    pub end: SimTime,
    /// First payload word (meaning per name; `docs/MODEL.md` §7).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl Span {
    /// Span length in nanoseconds.
    #[inline]
    pub fn dur_ns(&self) -> u64 {
        self.end.as_nanos() - self.start.as_nanos()
    }
}

/// A completed request's span tree. `spans[0]` is always the root
/// `request` span; children reference parents by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// Monotonic per-run request sequence number (arrival order).
    pub request: u64,
    /// Workload-defined request class.
    pub class: u16,
    /// The spans, root first, in emission order.
    pub spans: Vec<Span>,
}

impl SpanTree {
    /// End-to-end latency (root span length) in nanoseconds.
    pub fn e2e_ns(&self) -> u64 {
        self.spans[0].dur_ns()
    }
}

/// Records one in-flight request: its full span tree, or — for a store
/// that retains no exemplars — only what its [`CriticalPath`] needs.
///
/// The builder keeps a *cursor*: the end of the last phase emitted.
/// [`SpanBuilder::phase`] tiles `[cursor, until]` with the given stage
/// and advances the cursor, clamping `until` up to the cursor so time
/// never runs backward; instants already covered produce nothing. This
/// makes the phase tiling gap-free and overlap-free regardless of
/// emission-site ordering quirks, which is what guarantees
/// `Σ phases = e2e` exactly.
///
/// A *tree* builder ([`SpanBuilder::new`]) materialises every span. A
/// *stats-only* builder (what [`SpanStore::builder`] hands out when the
/// store keeps no exemplars) materialises none: it keeps the ten phase
/// sums plus the fetch and stall intervals the `fetch_hidden_ns`
/// overlay needs, and yields exactly the [`CriticalPath`] the tree
/// would. Structural calls (segments, faults, failovers) cost it one
/// branch.
#[derive(Debug)]
pub struct SpanBuilder {
    request: u64,
    class: u16,
    cursor: SimTime,
    rec: Recording,
}

/// What a builder records; the unit a [`SpanStore`] recycles. The
/// accumulator is boxed so a builder, which every in-flight request
/// carries, stays small.
#[derive(Debug)]
enum Recording {
    Tree(TreeRec),
    Stats(Box<PhaseAcc>),
}

/// A tree builder's spans and open structural spans.
#[derive(Debug)]
struct TreeRec {
    spans: Vec<Span>,
    open_segment: u32,
    open_fault: u32,
}

impl TreeRec {
    /// A tree recording into `spans` (reset when a builder starts).
    fn over(spans: Vec<Span>) -> TreeRec {
        TreeRec {
            spans,
            open_segment: NO_PARENT,
            open_fault: NO_PARENT,
        }
    }

    /// Parent for a new phase span: innermost open structural span.
    fn phase_parent(&self) -> u32 {
        if self.open_fault != NO_PARENT {
            self.open_fault
        } else if self.open_segment != NO_PARENT {
            self.open_segment
        } else {
            0
        }
    }
}

/// A stats-only builder's running attribution: the phase sums, plus
/// `(start_ns, end_ns)` of every fetch and of every stall phase
/// ([`Stage::Spin`], [`Stage::FetchWait`]) for the fetch overlays.
#[derive(Debug, Default)]
struct PhaseAcc {
    tx: SimTime,
    sums: [u64; NUM_STAGES],
    fetches: Vec<(u64, u64)>,
    stalls: Vec<(u64, u64)>,
}

impl SpanBuilder {
    /// Starts a tree for request `request` of `class`, arriving
    /// (client transmit) at `tx`. `buf` is a recycled span buffer
    /// (pass `Vec::new()` when not pooling).
    pub fn new(request: u64, class: u16, tx: SimTime, buf: Vec<Span>) -> SpanBuilder {
        SpanBuilder::start(request, class, tx, Recording::Tree(TreeRec::over(buf)))
    }

    /// Starts a builder for request `request` of `class`, arriving at
    /// `tx`, that records into `rec` (a recycled recording, reset
    /// here).
    fn start(request: u64, class: u16, tx: SimTime, mut rec: Recording) -> SpanBuilder {
        match &mut rec {
            Recording::Tree(t) => {
                t.spans.clear();
                t.spans.push(Span {
                    name: node::REQUEST,
                    parent: NO_PARENT,
                    start: tx,
                    end: tx,
                    a: class as u64,
                    b: 0,
                });
                t.open_segment = NO_PARENT;
                t.open_fault = NO_PARENT;
            }
            Recording::Stats(acc) => {
                acc.tx = tx;
                acc.sums = [0; NUM_STAGES];
                acc.fetches.clear();
                acc.stalls.clear();
            }
        }
        SpanBuilder {
            request,
            class,
            cursor: tx,
            rec,
        }
    }

    /// The end of the last phase emitted (the tiling frontier).
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// Tiles `[cursor, until]` with phase `stage` and advances the
    /// cursor. If `until` is not after the cursor, nothing is emitted.
    pub fn phase(&mut self, stage: Stage, until: SimTime) {
        let from = self.cursor;
        if until <= from {
            return;
        }
        match &mut self.rec {
            Recording::Tree(t) => {
                let parent = t.phase_parent();
                t.spans.push(Span {
                    name: stage.name(),
                    parent,
                    start: from,
                    end: until,
                    a: 0,
                    b: 0,
                });
            }
            Recording::Stats(acc) => {
                let (s, e) = (from.as_nanos(), until.as_nanos());
                acc.sums[stage as usize] += e - s;
                if stage.stalls() {
                    acc.stalls.push((s, e));
                }
            }
        }
        self.cursor = until;
    }

    /// Opens a worker-occupancy segment at `at` on worker `worker`.
    pub fn begin_segment(&mut self, at: SimTime, worker: usize) {
        let Recording::Tree(t) = &mut self.rec else {
            return;
        };
        debug_assert_eq!(t.open_segment, NO_PARENT, "segment already open");
        t.open_segment = t.spans.len() as u32;
        t.spans.push(Span {
            name: node::SEGMENT,
            parent: 0,
            start: at,
            end: at,
            a: worker as u64,
            b: 0,
        });
    }

    /// Closes the open segment at `at` (no-op when none is open).
    pub fn end_segment(&mut self, at: SimTime) {
        if let Recording::Tree(t) = &mut self.rec {
            if t.open_segment != NO_PARENT {
                let s = &mut t.spans[t.open_segment as usize];
                s.end = at.max(s.start);
                t.open_segment = NO_PARENT;
            }
        }
    }

    /// Opens a fault span at `at` for `page`. Re-entrant: if a fault is
    /// already open (QP-full retry re-enters the fault path), the
    /// existing span is kept.
    pub fn begin_fault(&mut self, at: SimTime, page: u64) {
        let Recording::Tree(t) = &mut self.rec else {
            return;
        };
        if t.open_fault != NO_PARENT {
            return;
        }
        let parent = if t.open_segment != NO_PARENT {
            t.open_segment
        } else {
            0
        };
        t.open_fault = t.spans.len() as u32;
        t.spans.push(Span {
            name: node::FAULT,
            parent,
            start: at,
            end: at,
            a: page,
            b: 0,
        });
    }

    /// Closes the open fault at `at` (no-op when none is open).
    pub fn end_fault(&mut self, at: SimTime) {
        if let Recording::Tree(t) = &mut self.rec {
            if t.open_fault != NO_PARENT {
                let s = &mut t.spans[t.open_fault as usize];
                s.end = at.max(s.start);
                t.open_fault = NO_PARENT;
            }
        }
    }

    /// Records one RDMA fetch: posted at `post`, dispatched by the NIC
    /// engine at `issued`, completed at `done`. Emits a `fetch` span
    /// (child of the open fault, segment, or root) with `nic_queue`
    /// and `wire` sub-spans split at `issued`.
    pub fn fetch(&mut self, post: SimTime, issued: SimTime, done: SimTime, page: u64, qp: u64) {
        self.fetch_with_retrans(post, issued, issued, done, page, qp, 0);
    }

    /// Like [`SpanBuilder::fetch`], but for a transfer the RC transport
    /// retransmitted: `wire_start` is the final attempt's send instant,
    /// and `[issued, wire_start]` becomes a `retrans` sub-span carrying
    /// the retransmission count.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_with_retrans(
        &mut self,
        post: SimTime,
        issued: SimTime,
        wire_start: SimTime,
        done: SimTime,
        page: u64,
        qp: u64,
        retransmits: u32,
    ) {
        let done = done.max(post);
        let t = match &mut self.rec {
            Recording::Tree(t) => t,
            Recording::Stats(acc) => {
                acc.fetches.push((post.as_nanos(), done.as_nanos()));
                return;
            }
        };
        let issued = issued.clamp(post, done);
        let wire_start = wire_start.clamp(issued, done);
        let parent = t.phase_parent();
        let fetch_idx = t.spans.len() as u32;
        t.spans.push(Span {
            name: node::FETCH,
            parent,
            start: post,
            end: done,
            a: page,
            b: qp,
        });
        t.spans.push(Span {
            name: node::NIC_QUEUE,
            parent: fetch_idx,
            start: post,
            end: issued,
            a: page,
            b: qp,
        });
        if retransmits > 0 && wire_start > issued {
            t.spans.push(Span {
                name: node::RETRANS,
                parent: fetch_idx,
                start: issued,
                end: wire_start,
                a: retransmits as u64,
                b: qp,
            });
        }
        t.spans.push(Span {
            name: node::WIRE,
            parent: fetch_idx,
            start: wire_start,
            end: done,
            a: page,
            b: qp,
        });
    }

    /// Emits a zero-length `failover` marker at `at`: the runtime gave
    /// up on a fetch attempt and re-issued it targeting `replica`
    /// (`attempt` counts issues of this fetch, starting at 1).
    pub fn failover(&mut self, at: SimTime, replica: u64, attempt: u64) {
        if let Recording::Tree(t) = &mut self.rec {
            let parent = t.phase_parent();
            t.spans.push(Span {
                name: node::FAILOVER,
                parent,
                start: at,
                end: at,
                a: replica,
                b: attempt,
            });
        }
    }

    /// Completes the tree: the reply reached the client at `rx`. The
    /// caller must have tiled phases up to `rx`; any still-open
    /// segment or fault is closed defensively.
    ///
    /// # Panics
    ///
    /// Panics on a stats-only builder, which has no tree (complete
    /// those through [`SpanStore::complete`]).
    pub fn finish(mut self, rx: SimTime) -> SpanTree {
        debug_assert_eq!(self.cursor, rx, "phase tiling must reach the reply instant");
        self.end_fault(rx);
        self.end_segment(rx);
        let Recording::Tree(TreeRec { mut spans, .. }) = self.rec else {
            panic!("a stats-only span builder has no tree");
        };
        let root = &mut spans[0];
        root.end = rx.max(root.start);
        SpanTree {
            request: self.request,
            class: self.class,
            spans,
        }
    }
}

impl PhaseAcc {
    /// The attribution of the request, completed at `rx`.
    fn critical_path(&self, rx: SimTime) -> CriticalPath {
        let e2e_ns = rx.max(self.tx).as_nanos() - self.tx.as_nanos();
        let (wall, hidden) =
            fetch_overlay(self.fetches.iter().copied(), self.stalls.iter().copied());
        CriticalPath::from_parts(e2e_ns, &self.sums, wall, hidden)
    }
}

/// Summed wall time of `fetches` and the part of it not covered by
/// `stalls` (intervals as `(start_ns, end_ns)`; stalls are phase spans,
/// so they never overlap one another).
fn fetch_overlay<F, S>(fetches: F, stalls: S) -> (u64, u64)
where
    F: Iterator<Item = (u64, u64)>,
    S: Iterator<Item = (u64, u64)> + Clone,
{
    let (mut wall, mut hidden) = (0, 0);
    for (fs, fe) in fetches {
        let d = fe - fs;
        let stalled: u64 = stalls
            .clone()
            .map(|(bs, be)| be.min(fe).saturating_sub(bs.max(fs)))
            .sum();
        wall += d;
        hidden += d - stalled.min(d);
    }
    (wall, hidden)
}

/// Exact attribution of one request's end-to-end latency.
///
/// The ten phase components sum to `e2e_ns` *exactly* (the phase
/// tiling is gap-free by construction — see [`SpanBuilder::phase`]).
/// `fetch_wall_ns`/`fetch_hidden_ns` are overlays, not components:
/// wall time of RDMA fetches and the part of it overlapped by useful
/// work (prefetch ahead of demand, or fetch racing handler compute)
/// rather than by a stall. `spin_ns + fetch_wait_ns` is the stalled
/// remainder — the critical-path fetch exposure the paper's figures
/// 2c/7c call "RDMA".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// End-to-end latency (root span), ns.
    pub e2e_ns: u64,
    /// [`Stage::Net`] total, ns.
    pub net_ns: u64,
    /// [`Stage::Dispatch`] total, ns.
    pub dispatch_ns: u64,
    /// [`Stage::Queue`] total, ns.
    pub queue_ns: u64,
    /// [`Stage::Handle`] total, ns.
    pub handle_ns: u64,
    /// [`Stage::Spin`] total, ns.
    pub spin_ns: u64,
    /// [`Stage::FetchWait`] total, ns.
    pub fetch_wait_ns: u64,
    /// [`Stage::QpStall`] total, ns.
    pub qp_stall_ns: u64,
    /// [`Stage::TxWait`] total, ns.
    pub tx_wait_ns: u64,
    /// [`Stage::Ctx`] total, ns.
    pub ctx_ns: u64,
    /// [`Stage::Reply`] total, ns.
    pub reply_ns: u64,
    /// Overlay: summed wall time of all `fetch` spans, ns.
    pub fetch_wall_ns: u64,
    /// Overlay: fetch wall time overlapped by useful work (not by a
    /// spin or park stall), ns.
    pub fetch_hidden_ns: u64,
}

impl CriticalPath {
    /// Computes the attribution for one completed tree (allocation
    /// free).
    pub fn of(tree: &SpanTree) -> CriticalPath {
        let mut sums = [0u64; NUM_STAGES];
        for s in &tree.spans {
            if let Some(st) = Stage::of_name(s.name) {
                sums[st as usize] += s.dur_ns();
            }
        }
        let interval = |s: &Span| (s.start.as_nanos(), s.end.as_nanos());
        let fetches = tree.spans.iter().filter(|s| s.name == node::FETCH);
        let stalls = tree
            .spans
            .iter()
            .filter(|s| Stage::of_name(s.name).is_some_and(Stage::stalls));
        let (wall, hidden) = fetch_overlay(fetches.map(interval), stalls.map(interval));
        CriticalPath::from_parts(tree.e2e_ns(), &sums, wall, hidden)
    }

    fn from_parts(
        e2e_ns: u64,
        sums: &[u64; NUM_STAGES],
        fetch_wall_ns: u64,
        fetch_hidden_ns: u64,
    ) -> CriticalPath {
        let ns = |s: Stage| sums[s as usize];
        CriticalPath {
            e2e_ns,
            net_ns: ns(Stage::Net),
            dispatch_ns: ns(Stage::Dispatch),
            queue_ns: ns(Stage::Queue),
            handle_ns: ns(Stage::Handle),
            spin_ns: ns(Stage::Spin),
            fetch_wait_ns: ns(Stage::FetchWait),
            qp_stall_ns: ns(Stage::QpStall),
            tx_wait_ns: ns(Stage::TxWait),
            ctx_ns: ns(Stage::Ctx),
            reply_ns: ns(Stage::Reply),
            fetch_wall_ns,
            fetch_hidden_ns,
        }
    }

    /// The ten phase components as `(stage name, ns)` pairs, in
    /// canonical order.
    pub fn components(&self) -> [(&'static str, u64); NUM_STAGES] {
        [
            (Stage::Net.name(), self.net_ns),
            (Stage::Dispatch.name(), self.dispatch_ns),
            (Stage::Queue.name(), self.queue_ns),
            (Stage::Handle.name(), self.handle_ns),
            (Stage::Spin.name(), self.spin_ns),
            (Stage::FetchWait.name(), self.fetch_wait_ns),
            (Stage::QpStall.name(), self.qp_stall_ns),
            (Stage::TxWait.name(), self.tx_wait_ns),
            (Stage::Ctx.name(), self.ctx_ns),
            (Stage::Reply.name(), self.reply_ns),
        ]
    }

    /// Sum of the ten phase components; equals `e2e_ns` for any tree
    /// built through [`SpanBuilder`].
    pub fn components_sum(&self) -> u64 {
        self.components().iter().map(|&(_, v)| v).sum()
    }
}

/// Canonical stage-histogram order: end-to-end first, then the ten
/// phase components, then the two fetch overlays.
pub const STAGES: [&str; 13] = [
    "e2e",
    Stage::Net.name(),
    Stage::Dispatch.name(),
    Stage::Queue.name(),
    Stage::Handle.name(),
    Stage::Spin.name(),
    Stage::FetchWait.name(),
    Stage::QpStall.name(),
    Stage::TxWait.name(),
    Stage::Ctx.name(),
    Stage::Reply.name(),
    "fetch_wall",
    "fetch_hidden",
];

/// Per-stage latency histograms over measured requests, in
/// [`STAGES`] order.
#[derive(Debug, Clone)]
pub struct StageStats {
    hists: Vec<(&'static str, Histogram)>,
}

impl Default for StageStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StageStats {
    /// Creates empty histograms for every canonical stage.
    pub fn new() -> StageStats {
        StageStats {
            hists: STAGES.iter().map(|&n| (n, Histogram::new())).collect(),
        }
    }

    /// Records one request's attribution into every stage histogram.
    pub fn record(&mut self, cp: &CriticalPath) {
        let values = [
            cp.e2e_ns,
            cp.net_ns,
            cp.dispatch_ns,
            cp.queue_ns,
            cp.handle_ns,
            cp.spin_ns,
            cp.fetch_wait_ns,
            cp.qp_stall_ns,
            cp.tx_wait_ns,
            cp.ctx_ns,
            cp.reply_ns,
            cp.fetch_wall_ns,
            cp.fetch_hidden_ns,
        ];
        for ((_, h), v) in self.hists.iter_mut().zip(values) {
            h.record(v);
        }
    }

    /// Histogram for `name`, if it is a canonical stage.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Iterates `(stage name, histogram)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.hists.iter().map(|(n, h)| (*n, h))
    }

    /// Renders `{"stage":{"count":..,"mean":..,"p50":..,"p99":..,
    /// "p999":..,"max":..},..}` deterministically (canonical order,
    /// fixed float precision).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
                name,
                h.count(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.percentile(99.9),
                h.max()
            );
        }
        out.push('}');
        out
    }
}

/// Configuration for the per-run span layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanConfig {
    /// Keep one [`CriticalPath`] row per measured request (needed for
    /// percentile-window breakdowns; costs ~100 B/request).
    pub keep_attributions: bool,
    /// Retain full span trees for requests at or above this
    /// end-to-end percentile (`None` disables exemplar retention).
    pub exemplar_percentile: Option<f64>,
    /// Upper bound on retained exemplar trees.
    pub max_exemplars: usize,
}

impl Default for SpanConfig {
    fn default() -> Self {
        SpanConfig {
            keep_attributions: true,
            exemplar_percentile: None,
            max_exemplars: 0,
        }
    }
}

impl SpanConfig {
    /// Stage histograms only: no per-request rows, no exemplars. The
    /// cheapest useful setting — what sweeps use.
    pub fn stats_only() -> SpanConfig {
        SpanConfig {
            keep_attributions: false,
            exemplar_percentile: None,
            max_exemplars: 0,
        }
    }

    /// Stats plus up to `max` full trees for requests at or above the
    /// `p`-th end-to-end percentile.
    pub fn with_exemplars(p: f64, max: usize) -> SpanConfig {
        SpanConfig {
            keep_attributions: false,
            exemplar_percentile: Some(p),
            max_exemplars: max,
        }
    }
}

/// Maximum recycled buffers (span trees or accumulators) kept by a
/// store; completions beyond it free their buffers instead.
pub const POOL_CAP: usize = 256;

/// Owns everything the span layer aggregates during a run.
#[derive(Debug)]
pub struct SpanStore {
    cfg: SpanConfig,
    stats: StageStats,
    e2e: Histogram,
    attributions: Vec<CriticalPath>,
    exemplars: Vec<SpanTree>,
    /// Recycled recordings: span trees when the store keeps
    /// exemplars, accumulators otherwise.
    pool: Vec<Recording>,
    next_request: u64,
    measured: u64,
}

impl SpanStore {
    /// Creates an empty store.
    pub fn new(cfg: SpanConfig) -> SpanStore {
        SpanStore {
            cfg,
            stats: StageStats::new(),
            e2e: Histogram::new(),
            attributions: Vec::new(),
            exemplars: Vec::new(),
            pool: Vec::new(),
            next_request: 0,
            measured: 0,
        }
    }

    /// Starts a builder for the next request (sequence numbers are
    /// assigned in arrival order, so same-seed runs agree). The builder
    /// records a tree only when the store may retain it as an exemplar.
    pub fn builder(&mut self, class: u16, tx: SimTime) -> SpanBuilder {
        let request = self.next_request;
        self.next_request += 1;
        let rec = self.pool.pop().unwrap_or_else(|| {
            if self.cfg.exemplar_percentile.is_some() && self.cfg.max_exemplars > 0 {
                Recording::Tree(TreeRec::over(Vec::new()))
            } else {
                Recording::Stats(Box::default())
            }
        });
        SpanBuilder::start(request, class, tx, rec)
    }

    /// Reclaims an abandoned builder's buffers (dropped request).
    pub fn discard(&mut self, b: SpanBuilder) {
        self.recycle(b.rec);
    }

    fn recycle(&mut self, rec: Recording) {
        if self.pool.len() < POOL_CAP {
            self.pool.push(rec);
        }
    }

    fn recycle_spans(&mut self, spans: Vec<Span>) {
        self.recycle(Recording::Tree(TreeRec::over(spans)));
    }

    /// Completes a request at reply-receipt instant `rx` and returns
    /// its attribution. Aggregates (histograms, attribution rows,
    /// exemplars) only when `in_window` — warm-up and drain-phase
    /// completions still produce an attribution but leave no trace.
    pub fn complete(&mut self, b: SpanBuilder, rx: SimTime, in_window: bool) -> CriticalPath {
        let (cp, tree) = match b.rec {
            Recording::Stats(acc) => {
                debug_assert_eq!(b.cursor, rx, "phase tiling must reach the reply instant");
                let cp = acc.critical_path(rx);
                self.recycle(Recording::Stats(acc));
                (cp, None)
            }
            Recording::Tree(_) => {
                let tree = b.finish(rx);
                (CriticalPath::of(&tree), Some(tree))
            }
        };
        if in_window {
            self.measured += 1;
            self.stats.record(&cp);
            if self.cfg.keep_attributions {
                self.attributions.push(cp);
            }
        }
        if let Some(tree) = tree {
            match self.cfg.exemplar_percentile {
                Some(p) if in_window && self.cfg.max_exemplars > 0 => self.offer_exemplar(tree, p),
                _ => self.recycle_spans(tree.spans),
            }
        }
        cp
    }

    /// Retains `tree` while it sits at or above the `p`-th percentile
    /// of the measured end-to-end distribution seen so far (the online
    /// threshold), evicting the fastest retained exemplar when full.
    fn offer_exemplar(&mut self, tree: SpanTree, p: f64) {
        let e2e = tree.e2e_ns();
        self.e2e.record(e2e);
        if e2e < self.e2e.percentile(p) {
            self.recycle_spans(tree.spans);
        } else if self.exemplars.len() < self.cfg.max_exemplars {
            self.exemplars.push(tree);
        } else {
            let (mi, min_e2e) = self
                .exemplars
                .iter()
                .enumerate()
                .map(|(i, t)| (i, t.e2e_ns()))
                .min_by_key(|&(_, e)| e)
                .expect("max_exemplars > 0");
            let evicted = if e2e > min_e2e {
                std::mem::replace(&mut self.exemplars[mi], tree)
            } else {
                tree
            };
            self.recycle_spans(evicted.spans);
        }
    }

    /// Freezes the store into the report carried on `RunResult`.
    /// Exemplars are sorted by request sequence so output is
    /// insertion-order independent.
    pub fn finish(mut self) -> SpanReport {
        self.exemplars.sort_by_key(|t| t.request);
        SpanReport {
            stats: self.stats,
            attributions: self.attributions,
            exemplars: self.exemplars,
            measured: self.measured,
        }
    }
}

/// Frozen span-layer output of one run.
#[derive(Debug, Clone)]
pub struct SpanReport {
    /// Per-stage histograms over measured requests.
    pub stats: StageStats,
    /// One attribution row per measured request (empty unless
    /// [`SpanConfig::keep_attributions`]).
    pub attributions: Vec<CriticalPath>,
    /// Retained tail exemplar trees, by request sequence.
    pub exemplars: Vec<SpanTree>,
    /// Measured-window completions seen by the store.
    pub measured: u64,
}

/// Renders span trees in the raw schema (`docs/MODEL.md` §7):
/// `[{"request":..,"class":..,"spans":[{"name":..,"parent":..,
/// "start":..,"end":..,"a":..,"b":..},..]},..]`. `parent` is `-1`
/// for the root. Deterministic for a deterministic tree list.
pub fn spans_to_json(trees: &[SpanTree]) -> String {
    let mut out = String::from("[");
    for (i, t) in trees.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"request\":{},\"class\":{},\"spans\":[",
            t.request, t.class
        );
        for (j, s) in t.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"parent\":{},\"start\":{},\"end\":{},\"a\":{},\"b\":{}}}",
                s.name,
                parent,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.a,
                s.b
            );
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// Timestamp in Chrome-trace microseconds, fixed precision.
fn us(t: SimTime) -> String {
    format!("{:.3}", t.as_nanos() as f64 / 1_000.0)
}

/// Renders span trees as Chrome trace event JSON, loadable at
/// <https://ui.perfetto.dev>.
///
/// Layout: each request is a Perfetto *process* (`pid` = request
/// sequence) with four tracks — `tid` 0 the root `request` span,
/// `tid` 1 worker segments, `tid` 2 the phase tiling, `tid` 3 faults
/// — all as `"X"` complete events (each track is overlap-free by
/// construction). Fetches and their `nic_queue`/`wire` sub-spans are
/// async `"b"`/`"e"` pairs (category `"fetch"`, process-wide unique
/// ids) because concurrent prefetches overlap in time.
pub fn perfetto_json(trees: &[SpanTree]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut async_id: u64 = 0;
    let push = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&ev);
    };
    for t in trees {
        let pid = t.request;
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"request {} (class {})\"}}}}",
                t.request, t.class
            ),
        );
        for (tid, name) in [
            (0, "request"),
            (1, "segments"),
            (2, "phases"),
            (3, "faults"),
        ] {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
                ),
            );
        }
        for s in &t.spans {
            let tid = match s.name {
                node::REQUEST => 0,
                node::SEGMENT => 1,
                node::FAULT => 3,
                node::FAILOVER => {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":3,\"ts\":{},\
                             \"name\":\"failover\",\"s\":\"t\",\
                             \"args\":{{\"a\":{},\"b\":{}}}}}",
                            us(s.start),
                            s.a,
                            s.b
                        ),
                    );
                    continue;
                }
                node::FETCH | node::NIC_QUEUE | node::WIRE | node::RETRANS => {
                    let id = async_id;
                    async_id += 1;
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"b\",\"cat\":\"fetch\",\"id\":{id},\"pid\":{pid},\
                             \"tid\":0,\"ts\":{},\"name\":\"{}\",\
                             \"args\":{{\"a\":{},\"b\":{}}}}}",
                            us(s.start),
                            s.name,
                            s.a,
                            s.b
                        ),
                    );
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"e\",\"cat\":\"fetch\",\"id\":{id},\"pid\":{pid},\
                             \"tid\":0,\"ts\":{},\"name\":\"{}\"}}",
                            us(s.end),
                            s.name
                        ),
                    );
                    continue;
                }
                _ => 2,
            };
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{:.3},\
                     \"name\":\"{}\",\"args\":{{\"a\":{},\"b\":{}}}}}",
                    us(s.start),
                    s.dur_ns() as f64 / 1_000.0,
                    s.name,
                    s.a,
                    s.b
                ),
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// A representative tree: net→dispatch→queue→segment(handle,
    /// fault(handle, spin), handle)→reply→tx_wait→net.
    fn sample_tree(request: u64) -> SpanTree {
        let mut b = SpanBuilder::new(request, 1, t(0), Vec::new());
        b.phase(Stage::Net, t(100));
        b.phase(Stage::Dispatch, t(150));
        b.phase(Stage::Queue, t(200));
        b.begin_segment(t(200), 3);
        b.phase(Stage::Handle, t(500));
        b.begin_fault(t(500), 42);
        b.phase(Stage::Handle, t(600));
        b.fetch(t(600), t(620), t(900), 42, 7);
        b.phase(Stage::Spin, t(900));
        b.end_fault(t(900));
        b.phase(Stage::Handle, t(1_100));
        b.phase(Stage::Reply, t(1_200));
        b.end_segment(t(1_200));
        b.phase(Stage::TxWait, t(1_250));
        b.phase(Stage::Net, t(1_400));
        b.finish(t(1_400))
    }

    #[test]
    fn phase_tiling_sums_to_e2e_exactly() {
        let tree = sample_tree(0);
        let cp = CriticalPath::of(&tree);
        assert_eq!(tree.e2e_ns(), 1_400);
        assert_eq!(cp.components_sum(), cp.e2e_ns);
        assert_eq!(cp.net_ns, 100 + 150);
        assert_eq!(cp.handle_ns, 300 + 100 + 200);
        assert_eq!(cp.spin_ns, 300);
    }

    #[test]
    fn phase_clamps_backward_time_and_skips_empty() {
        let mut b = SpanBuilder::new(0, 0, t(1_000), Vec::new());
        b.phase(Stage::Net, t(1_100));
        // An earlier instant (worker clock behind the cursor) emits
        // nothing and does not move the cursor back.
        b.phase(Stage::Queue, t(1_050));
        assert_eq!(b.cursor(), t(1_100));
        b.phase(Stage::Queue, t(1_100));
        let tree = b.finish(t(1_100));
        assert_eq!(tree.spans.len(), 2); // root + net
        assert_eq!(CriticalPath::of(&tree).components_sum(), tree.e2e_ns());
    }

    #[test]
    fn fetch_overlap_accounting_splits_hidden_from_stalled() {
        let mut b = SpanBuilder::new(0, 0, t(0), Vec::new());
        b.begin_segment(t(0), 0);
        b.begin_fault(t(0), 9);
        // Fetch [0, 400]; the request only stalls on it for [300, 400]
        // (100 ns); the first 300 ns are hidden under handler compute.
        b.fetch(t(0), t(40), t(400), 9, 0);
        b.phase(Stage::Handle, t(300));
        b.phase(Stage::Spin, t(400));
        b.end_fault(t(400));
        b.end_segment(t(400));
        let tree = b.finish(t(400));
        let cp = CriticalPath::of(&tree);
        assert_eq!(cp.fetch_wall_ns, 400);
        assert_eq!(cp.spin_ns, 100);
        assert_eq!(cp.fetch_hidden_ns, 300);
        assert_eq!(cp.components_sum(), cp.e2e_ns);
    }

    #[test]
    fn fetch_fully_stalled_hides_nothing() {
        let mut b = SpanBuilder::new(0, 0, t(0), Vec::new());
        b.begin_fault(t(0), 1);
        b.fetch(t(0), t(10), t(200), 1, 0);
        b.phase(Stage::FetchWait, t(200));
        b.end_fault(t(200));
        let tree = b.finish(t(200));
        let cp = CriticalPath::of(&tree);
        assert_eq!(cp.fetch_hidden_ns, 0);
        assert_eq!(cp.fetch_wait_ns, 200);
    }

    #[test]
    fn structural_tree_shape() {
        let tree = sample_tree(5);
        assert_eq!(tree.spans[0].name, node::REQUEST);
        assert_eq!(tree.spans[0].parent, NO_PARENT);
        let seg = tree
            .spans
            .iter()
            .position(|s| s.name == node::SEGMENT)
            .unwrap();
        assert_eq!(tree.spans[seg].parent, 0);
        assert_eq!(tree.spans[seg].a, 3);
        let fault = tree
            .spans
            .iter()
            .position(|s| s.name == node::FAULT)
            .unwrap();
        assert_eq!(tree.spans[fault].parent as usize, seg);
        let fetch = tree
            .spans
            .iter()
            .position(|s| s.name == node::FETCH)
            .unwrap();
        assert_eq!(tree.spans[fetch].parent as usize, fault);
        // nic_queue + wire tile the fetch span.
        let nq = &tree.spans[fetch + 1];
        let wire = &tree.spans[fetch + 2];
        assert_eq!(nq.name, node::NIC_QUEUE);
        assert_eq!(wire.name, node::WIRE);
        assert_eq!(nq.parent as usize, fetch);
        assert_eq!(nq.dur_ns() + wire.dur_ns(), tree.spans[fetch].dur_ns());
        // The spin after the fetch is a child of the fault.
        let spin = tree
            .spans
            .iter()
            .find(|s| s.name == Stage::Spin.name())
            .unwrap();
        assert_eq!(spin.parent as usize, fault);
    }

    #[test]
    fn retransmitted_fetch_gets_a_retrans_child() {
        let mut b = SpanBuilder::new(0, 0, t(0), Vec::new());
        b.begin_fault(t(0), 9);
        b.phase(Stage::Handle, t(50));
        b.fetch_with_retrans(t(50), t(70), t(16_070), t(18_000), 9, 2, 1);
        b.failover(t(18_000), 1, 2);
        b.fetch_with_retrans(t(18_000), t(18_020), t(18_020), t(20_000), 9, 3, 0);
        b.phase(Stage::Spin, t(20_000));
        b.end_fault(t(20_000));
        let tree = b.finish(t(20_000));

        let retrans: Vec<&Span> = tree
            .spans
            .iter()
            .filter(|s| s.name == node::RETRANS)
            .collect();
        assert_eq!(retrans.len(), 1, "only the lossy fetch has one");
        assert_eq!(retrans[0].start, t(70));
        assert_eq!(retrans[0].end, t(16_070));
        assert_eq!(retrans[0].a, 1, "carries the retransmit count");

        // The first fetch's wire span starts at the final attempt.
        let wires: Vec<&Span> = tree.spans.iter().filter(|s| s.name == node::WIRE).collect();
        assert_eq!(wires[0].start, t(16_070));
        assert_eq!(wires[1].start, t(18_020));

        let fo = tree
            .spans
            .iter()
            .find(|s| s.name == node::FAILOVER)
            .expect("failover marker");
        assert_eq!((fo.start, fo.a, fo.b), (t(18_000), 1, 2));
        assert_eq!(fo.dur_ns(), 0);

        // Structural additions never disturb the phase-tiling identity.
        let cp = CriticalPath::of(&tree);
        assert_eq!(cp.components_sum(), tree.e2e_ns());
        // Both fetch walls are accounted.
        assert_eq!(cp.fetch_wall_ns, (18_000 - 50) + (20_000 - 18_000));

        // Perfetto export renders retrans as async pair and failover as
        // an instant event, deterministically.
        let json = perfetto_json(&[tree]);
        assert!(json.contains("\"name\":\"retrans\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"failover\""));
    }

    /// `CriticalPath::of` as it was before it stopped allocating: the
    /// reference both the tree walk and the accumulator must match.
    fn reference_of(tree: &SpanTree) -> CriticalPath {
        let mut sums = [0u64; NUM_STAGES];
        let mut stalls: Vec<(u64, u64)> = Vec::new();
        let mut fetches: Vec<(u64, u64)> = Vec::new();
        for s in &tree.spans {
            let iv = (s.start.as_nanos(), s.end.as_nanos());
            match Stage::ALL.iter().find(|st| st.name() == s.name) {
                Some(&st) => {
                    sums[st as usize] += s.dur_ns();
                    if st == Stage::Spin || st == Stage::FetchWait {
                        stalls.push(iv);
                    }
                }
                None if s.name == node::FETCH => fetches.push(iv),
                None => {}
            }
        }
        let mut wall = 0;
        let mut hidden = 0;
        for &(fs, fe) in &fetches {
            wall += fe - fs;
            let stalled: u64 = stalls
                .iter()
                .map(|&(bs, be)| be.min(fe).saturating_sub(bs.max(fs)))
                .sum();
            hidden += (fe - fs).saturating_sub(stalled.min(fe - fs));
        }
        CriticalPath::from_parts(tree.e2e_ns(), &sums, wall, hidden)
    }

    #[test]
    fn accumulator_matches_the_tree_walk_on_random_requests() {
        let mut rng = crate::Rng::new(7);
        let mut store = SpanStore::new(SpanConfig::stats_only());
        let mut spans_total = 0;
        for req in 0..3_000u64 {
            let tx = t(rng.gen_range(1_000));
            let mut tree = SpanBuilder::new(req, 0, tx, Vec::new());
            let mut acc = store.builder(0, tx);
            let (mut seg, mut now) = (false, tx.as_nanos());
            for _ in 0..rng.gen_range(40) {
                let at = t(now);
                let page = rng.gen_range(64);
                // Both builders see the same call.
                let mut call = |f: &dyn Fn(&mut SpanBuilder)| {
                    f(&mut tree);
                    f(&mut acc);
                };
                match rng.gen_range(9) {
                    0..=3 => {
                        let stage = Stage::ALL[rng.gen_range(NUM_STAGES as u64) as usize];
                        // Occasionally behind the cursor: emits nothing.
                        let until = (now + rng.gen_range(400)).saturating_sub(50);
                        call(&|b| b.phase(stage, t(until)));
                        now = now.max(until);
                    }
                    4 if !seg => {
                        seg = true;
                        call(&|b| b.begin_segment(at, 1));
                    }
                    4 => {
                        seg = false;
                        call(&|b| b.end_segment(at));
                    }
                    5 => call(&|b| b.begin_fault(at, page)),
                    6 => call(&|b| b.end_fault(at)),
                    7 => {
                        // Fetches may start before the cursor, finish
                        // after it, be retransmitted, or come inverted.
                        let post = (now + rng.gen_range(300)).saturating_sub(150);
                        let issued = post + rng.gen_range(100);
                        let wire = issued + rng.gen_range(2_000);
                        let done = (wire + rng.gen_range(3_000)).saturating_sub(200);
                        let retrans = rng.gen_range(3) as u32;
                        call(&|b| {
                            b.fetch_with_retrans(
                                t(post),
                                t(issued),
                                t(wire),
                                t(done),
                                page,
                                2,
                                retrans,
                            )
                        });
                    }
                    _ => call(&|b| b.failover(at, 1, 2)),
                }
            }
            let rx = t(now + rng.gen_range(500));
            tree.phase(Stage::Net, rx);
            acc.phase(Stage::Net, rx);
            let tree = tree.finish(rx);
            spans_total += tree.spans.len();
            let walked = CriticalPath::of(&tree);
            assert_eq!(walked, reference_of(&tree), "request {req}");
            assert_eq!(store.complete(acc, rx, true), walked, "request {req}");
            assert_eq!(walked.components_sum(), walked.e2e_ns);
        }
        assert!(spans_total > 30_000, "sequences exercise the builder");
    }

    #[test]
    fn stage_stats_percentiles_monotone() {
        let mut stats = StageStats::new();
        for i in 0..500u64 {
            let mut b = SpanBuilder::new(i, 0, t(0), Vec::new());
            b.phase(Stage::Queue, t(10 + i % 97));
            b.phase(Stage::Handle, t(200 + 13 * (i % 31)));
            let tree = b.finish(t(200 + 13 * (i % 31)));
            stats.record(&CriticalPath::of(&tree));
        }
        for (name, h) in stats.iter() {
            let (p50, p99, p999) = (h.percentile(50.0), h.percentile(99.0), h.percentile(99.9));
            assert!(p50 <= p99 && p99 <= p999, "{name}: {p50} {p99} {p999}");
        }
        assert_eq!(stats.get("e2e").unwrap().count(), 500);
    }

    #[test]
    fn store_counts_only_measured_window() {
        let mut store = SpanStore::new(SpanConfig::default());
        let mut b = store.builder(0, t(0));
        b.phase(Stage::Handle, t(100));
        store.complete(b, t(100), false); // warm-up
        let mut b = store.builder(0, t(200));
        b.phase(Stage::Handle, t(450));
        let cp = store.complete(b, t(450), true);
        assert_eq!(cp.e2e_ns, 250);
        let report = store.finish();
        assert_eq!(report.measured, 1);
        assert_eq!(report.attributions.len(), 1);
        assert_eq!(report.stats.get("e2e").unwrap().count(), 1);
    }

    #[test]
    fn exemplar_sampler_is_bounded_and_keeps_the_tail() {
        let mut store = SpanStore::new(SpanConfig::with_exemplars(0.0, 4));
        for i in 1..=100u64 {
            let mut b = store.builder(0, t(0));
            b.phase(Stage::Handle, t(i * 10));
            store.complete(b, t(i * 10), true);
        }
        let report = store.finish();
        assert_eq!(report.exemplars.len(), 4);
        // The four slowest requests (970..=1000 ns) survive.
        let mut kept: Vec<u64> = report.exemplars.iter().map(|t| t.e2e_ns()).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![970, 980, 990, 1_000]);
        // Sorted by arrival sequence for deterministic export.
        let seqs: Vec<u64> = report.exemplars.iter().map(|t| t.request).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn exemplar_threshold_filters_the_fast_majority() {
        let mut store = SpanStore::new(SpanConfig::with_exemplars(99.0, 16));
        // 1000 fast requests and 5 slow ones; only the tail (and the
        // cold-start admissions before the histogram stabilizes)
        // should be retained.
        for i in 0..1_000u64 {
            let mut b = store.builder(0, t(0));
            b.phase(Stage::Handle, t(100 + i % 7));
            store.complete(b, t(100 + i % 7), true);
        }
        for _ in 0..5 {
            let mut b = store.builder(0, t(0));
            b.phase(Stage::Handle, t(10_000));
            store.complete(b, t(10_000), true);
        }
        let report = store.finish();
        assert!(report.exemplars.len() <= 16);
        let slow = report
            .exemplars
            .iter()
            .filter(|t| t.e2e_ns() == 10_000)
            .count();
        assert_eq!(slow, 5, "all tail trees retained");
    }

    #[test]
    fn store_recycles_buffers() {
        let kinds = |store: &SpanStore| -> Vec<bool> {
            let tree = |r: &Recording| matches!(r, Recording::Tree(_));
            store.pool.iter().map(tree).collect()
        };
        // Stats-only stores pool accumulators and never build a tree.
        let mut store = SpanStore::new(SpanConfig::stats_only());
        for _ in 0..10 {
            let mut b = store.builder(0, t(0));
            b.phase(Stage::Handle, t(50));
            store.complete(b, t(50), true);
        }
        assert_eq!(kinds(&store), [false], "one buffer serves serial requests");
        let b = store.builder(0, t(0));
        store.discard(b);
        assert_eq!(kinds(&store), [false]);

        // Exemplar stores pool span trees.
        let mut store = SpanStore::new(SpanConfig::with_exemplars(99.0, 1));
        for i in 0..10 {
            let mut b = store.builder(0, t(0));
            b.phase(Stage::Handle, t(50 - i));
            store.complete(b, t(50 - i), true);
        }
        let pooled = kinds(&store);
        assert!(!pooled.is_empty() && pooled.len() <= 10);
        assert!(pooled.iter().all(|&tree| tree));
    }

    #[test]
    fn spans_json_is_deterministic_and_shaped() {
        let trees = [sample_tree(0), sample_tree(1)];
        let a = spans_to_json(&trees);
        let b = spans_to_json(&trees);
        assert_eq!(a, b);
        assert!(a.starts_with('[') && a.ends_with(']'));
        assert!(a.contains("\"name\":\"request\""));
        assert!(a.contains("\"parent\":-1"));
        assert!(a.contains("\"request\":1"));
    }

    #[test]
    fn perfetto_json_is_deterministic_and_pairs_async_events() {
        let trees = [sample_tree(0)];
        let a = perfetto_json(&trees);
        assert_eq!(a, perfetto_json(&trees));
        assert!(a.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(a.ends_with("]}"));
        let begins = a.matches("\"ph\":\"b\"").count();
        let ends = a.matches("\"ph\":\"e\"").count();
        assert_eq!(begins, ends);
        assert_eq!(begins, 3); // fetch + nic_queue + wire
                               // Phase spans land on the phases track with µs timestamps.
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"queue\""));
        assert!(a.contains("\"ts\":0.000"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "phase tiling must reach the reply instant")]
    fn finish_requires_complete_tiling() {
        let mut b = SpanBuilder::new(0, 0, t(0), Vec::new());
        b.phase(Stage::Net, t(50));
        let _ = b.finish(t(100));
    }
}
