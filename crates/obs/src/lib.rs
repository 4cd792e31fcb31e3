//! Zero-dependency observability layer for the Tetris engine stack:
//! wall-clock **phase spans**, power-of-two-bucket **histograms**,
//! box-store **memory ledgers**, a per-subtree **attribution ledger** and
//! a bounded **flight recorder** — the evidence `tetris_bench --trace 1`
//! and the ledger-balance walls read, with nothing the metrics-off hot
//! path has to pay for.
//!
//! # Design
//!
//! * A [`Ledger`] is plain data with public fields. The engine holds an
//!   `Option<Box<Ledger>>` (`None` unless `TetrisConfig::obs` is set),
//!   and each observation site writes the field it observes behind one
//!   `if let Some(l)` — no allocation, no locks, no time syscalls when
//!   metrics are off.
//! * Each worker owns its own [`Ledger`]; parallel runs merge them with
//!   [`Ledger::absorb`] when task reports are collected — exactly the
//!   `TetrisStats::absorb` discipline, so the hot path never touches a
//!   shared ledger. The [`AttributionLedger`] rides inside the [`Ledger`]
//!   and merges the same way.
//! * Histograms use power-of-two buckets (bucket 0 holds the value 0,
//!   bucket `k ≥ 1` holds `[2^(k-1), 2^k)`), so one `u64` array covers
//!   everything from repair-window lags (≤ 64) to donated-shard sizes
//!   (millions) with no configuration.
//! * The [`FlightRecorder`] is generic over its event type (this crate
//!   sits below the crate that defines the engine's trace events): a
//!   ring of [`DEFAULT_TRACE_CAPACITY`] events that keeps the **most
//!   recent** ones and counts everything it evicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Number of buckets in a [`Pow2Histogram`]: bucket 0 plus one bucket
/// per power of two up to `2^30`; larger values clamp into the last
/// bucket.
pub const HIST_BUCKETS: usize = 32;

/// A fixed-size histogram with power-of-two buckets.
///
/// Bucket 0 counts observations of the exact value `0`; bucket `k` for
/// `1 ≤ k < HIST_BUCKETS-1` counts values in `[2^(k-1), 2^k)` (i.e. the
/// bucket index is the bit length of the value); the last bucket absorbs
/// everything `≥ 2^(HIST_BUCKETS-2)`. Observing and merging never
/// allocate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pow2Histogram {
    buckets: [u64; HIST_BUCKETS],
}

/// The bucket a value lands in: its bit length, clamped.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

impl Pow2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one observation of `v`.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Element-wise merge of another histogram into this one.
    pub fn absorb(&mut self, other: &Pow2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Comma-joined bucket counts, truncated after the last non-zero
    /// bucket (`"0"` for an empty histogram).
    pub fn to_csv(&self) -> String {
        let last = self.buckets.iter().rposition(|&c| c != 0).unwrap_or(0);
        self.buckets[..=last]
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// The engine phases a wall-clock span can be attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Knowledge-base construction (engine build incl. preload).
    Preload,
    /// The resolution loop proper.
    Solve,
    /// One parallel worker's task slice (root task or served donation).
    Task,
}

/// Number of [`Phase`] variants (spans are stored in a fixed array).
pub const PHASES: usize = 3;

/// Accumulated wall-clock spans for one phase: how many spans were
/// recorded and their total length.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Total seconds across those spans.
    pub secs: f64,
}

/// Memory ledger of one box store: what `BoxTree::mem_stats` reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Arena nodes allocated (the store's `node_count`).
    pub nodes: u64,
    /// Bytes held by those node arenas (`size_of`-exact for the node
    /// records; excludes the insert ring and transient scratch).
    pub bytes: u64,
    /// Longest link chain from a root to any node, in hops — the walk an
    /// adversarial full probe would pay.
    pub max_depth: u64,
}

/// SAO-prefix width of an [`AttributionLedger`]: resolutions are
/// attributed to the first 8 bits of the resolution site's dimension-0
/// navigation word (256 subtree rows plus one short-box spill row).
pub const ATTR_PREFIX_BITS: u32 = 8;

/// One attribution row: what happened under one dimension-0 subtree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttrRow {
    /// Resolutions whose resolvent's dimension-0 interval lies in this
    /// subtree. Sums to `TetrisStats::resolutions` across all rows.
    pub resolutions: u64,
    /// Resolvents that materialized **identical** to a box already in
    /// the knowledge base (the store insert found it verbatim) — the
    /// re-derivation work the Õ(N+Z) bound says should not pile up.
    pub re_resolutions: u64,
    /// Engine-side store inserts that were novel (resolvents, outputs,
    /// and loaded gap boxes; preload bulk construction is not an engine
    /// insert site and is deliberately excluded).
    pub inserts: u64,
    /// Probe repairs whose insert-log window scan surfaced a containing
    /// lagging insert (a repair that actually changed the answer, not
    /// just re-synced the frontier).
    pub repair_hits: u64,
}

impl AttrRow {
    /// True when every counter is zero (`top_k` skips such rows).
    pub fn is_empty(&self) -> bool {
        self.resolutions == 0
            && self.re_resolutions == 0
            && self.inserts == 0
            && self.repair_hits == 0
    }

    fn absorb(&mut self, other: &AttrRow) {
        self.resolutions += other.resolutions;
        self.re_resolutions += other.re_resolutions;
        self.inserts += other.inserts;
        self.repair_hits += other.repair_hits;
    }
}

/// Per-SAO-prefix attribution of resolution work.
///
/// Rows are keyed by the first [`ATTR_PREFIX_BITS`] bits of a box's
/// **dimension-0 navigation word** (`nav = (1 << len) | bits`, the
/// self-delimiting encoding used by the dyadic layer) — i.e. by the
/// subtree of the SAO's first attribute that the box sits under at that
/// depth. Boxes whose dimension-0 interval is shorter land in a dedicated
/// **short row** (index [`AttributionLedger::short_row`]), so every
/// observation has exactly one row and the ledger stays balanced: the
/// `resolutions` column sums to `TetrisStats::resolutions` in every
/// descent mode.
///
/// This crate has no dyadic dependency, so observers hand in the raw
/// `u64` navigation word; [`AttributionLedger::row_of`] decodes it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttributionLedger {
    rows: Vec<AttrRow>,
}

impl Default for AttributionLedger {
    /// An empty ledger (all `2^ATTR_PREFIX_BITS + 1` rows are allocated
    /// eagerly so observing never does).
    fn default() -> Self {
        AttributionLedger {
            rows: vec![AttrRow::default(); (1usize << ATTR_PREFIX_BITS) + 1],
        }
    }
}

impl AttributionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the spill row for boxes whose dimension-0 interval is
    /// shorter than the prefix width (including `λ`).
    pub fn short_row(&self) -> usize {
        1usize << ATTR_PREFIX_BITS
    }

    /// The row a dimension-0 navigation word attributes to: the top
    /// [`ATTR_PREFIX_BITS`] bits of its interval when long enough, else
    /// the short row. The value `0` is not a valid navigation word and
    /// also spills.
    #[inline]
    pub fn row_of(&self, nav0: u64) -> usize {
        if nav0 <= 1 {
            return self.short_row();
        }
        let len = 63 - nav0.leading_zeros();
        if len < ATTR_PREFIX_BITS {
            return self.short_row();
        }
        let bits = nav0 ^ (1u64 << len);
        (bits >> (len - ATTR_PREFIX_BITS)) as usize
    }

    /// All rows; index [`AttributionLedger::short_row`] is the spill row.
    pub fn rows(&self) -> &[AttrRow] {
        &self.rows
    }

    /// Attribute one resolution to `nav0`'s subtree.
    #[inline]
    pub fn count_resolution(&mut self, nav0: u64) {
        let row = self.row_of(nav0);
        self.rows[row].resolutions += 1;
    }

    /// Attribute one identical-box re-resolution to `nav0`'s subtree.
    #[inline]
    pub fn count_re_resolution(&mut self, nav0: u64) {
        let row = self.row_of(nav0);
        self.rows[row].re_resolutions += 1;
    }

    /// Attribute one novel engine-side store insert to `nav0`'s subtree.
    #[inline]
    pub fn count_insert(&mut self, nav0: u64) {
        let row = self.row_of(nav0);
        self.rows[row].inserts += 1;
    }

    /// Attribute one answer-changing probe repair to `nav0`'s subtree.
    #[inline]
    pub fn count_repair_hit(&mut self, nav0: u64) {
        let row = self.row_of(nav0);
        self.rows[row].repair_hits += 1;
    }

    /// Total resolutions across all rows — the balance wall's left side
    /// (must equal `TetrisStats::resolutions` in every mode).
    pub fn resolutions(&self) -> u64 {
        self.rows.iter().map(|r| r.resolutions).sum()
    }

    /// Total identical-box re-resolutions across all rows.
    pub fn re_resolutions(&self) -> u64 {
        self.rows.iter().map(|r| r.re_resolutions).sum()
    }

    /// Total novel engine-side inserts across all rows.
    pub fn inserts(&self) -> u64 {
        self.rows.iter().map(|r| r.inserts).sum()
    }

    /// Total answer-changing repairs across all rows.
    pub fn repair_hits(&self) -> u64 {
        self.rows.iter().map(|r| r.repair_hits).sum()
    }

    /// Merge another worker's ledger.
    pub fn absorb(&mut self, other: &AttributionLedger) {
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            a.absorb(b);
        }
    }

    /// Human-readable label for a row index: the prefix as a bit string,
    /// or `"short"` for the spill row.
    pub fn label(&self, row: usize) -> String {
        if row == self.short_row() {
            return "short".to_string();
        }
        (0..ATTR_PREFIX_BITS)
            .rev()
            .map(|b| if (row >> b) & 1 == 1 { '1' } else { '0' })
            .collect()
    }

    /// The `n` hottest non-empty rows by resolutions (ties broken by row
    /// index), as `(row_index, row)` pairs.
    pub fn top_k(&self, n: usize) -> Vec<(usize, AttrRow)> {
        let mut hot: Vec<(usize, AttrRow)> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, r)| (i, *r))
            .collect();
        hot.sort_by(|a, b| b.1.resolutions.cmp(&a.1.resolutions).then(a.0.cmp(&b.0)));
        hot.truncate(n);
        hot
    }
}

/// The [`FlightRecorder`] ring's capacity: large enough that the worked
/// paper examples and smoke-tier traces never wrap, small enough that a
/// traced graph-tier run stays a bounded ring instead of an unbounded
/// `Vec`.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// A bounded flight recorder: a ring of [`DEFAULT_TRACE_CAPACITY`]
/// events that keeps the most recent ones.
///
/// Recording into a full ring evicts the oldest event and counts it
/// dropped, so `recorded = len + dropped` always holds and a consumer
/// can tell exactly how much of the run it is looking at.
///
/// Generic over the event type: this crate sits below the crate that
/// defines the engine's trace events.
#[derive(Clone, Debug)]
pub struct FlightRecorder<E> {
    buf: std::collections::VecDeque<E>,
    recorded: u64,
    dropped: u64,
}

impl<E> Default for FlightRecorder<E> {
    fn default() -> Self {
        FlightRecorder {
            buf: std::collections::VecDeque::with_capacity(DEFAULT_TRACE_CAPACITY),
            recorded: 0,
            dropped: 0,
        }
    }
}

impl<E> FlightRecorder<E> {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event. On a full ring the oldest event is evicted and
    /// counted dropped.
    #[inline]
    pub fn record(&mut self, ev: E) {
        if self.buf.len() == DEFAULT_TRACE_CAPACITY {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
        self.recorded += 1;
    }

    /// Events currently held (≤ [`DEFAULT_TRACE_CAPACITY`]).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events recorded over the run (held + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Recorded events later evicted by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate the held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.buf.iter()
    }

    /// Consume the recorder, yielding the held events oldest-first.
    pub fn drain(self) -> Vec<E> {
        self.buf.into_iter().collect()
    }
}

/// One worker's metrics: the four engine histograms, the attribution
/// ledger and per-phase span totals. Plain data — observation sites
/// write the fields directly (`l.walk.observe(n)`), and workers' ledgers
/// are merged with [`Ledger::absorb`] at scope end, never shared across
/// threads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Resolution depth: descent-stack height at each resolution.
    pub depth: Pow2Histogram,
    /// Probe walk length: frontier entries each KB query worked from.
    pub walk: Pow2Histogram,
    /// Repair window size: insert-log lag of each repaired probe.
    pub repair: Pow2Histogram,
    /// Donated-shard size: boxes seeded into each donation's overlay.
    pub donation: Pow2Histogram,
    /// Per-SAO-prefix attribution of resolutions/inserts/repairs.
    pub attr: AttributionLedger,
    /// Wall-clock span totals, indexed by [`Phase`] discriminant.
    pub spans: [SpanTotals; PHASES],
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The span totals recorded for `phase`.
    pub fn span(&self, phase: Phase) -> SpanTotals {
        self.spans[phase as usize]
    }

    /// Add one completed `phase` span of `secs` wall-clock seconds.
    pub fn record_span(&mut self, phase: Phase, secs: f64) {
        let s = &mut self.spans[phase as usize];
        s.count += 1;
        s.secs += secs;
    }

    /// Merge another worker's ledger into this one.
    pub fn absorb(&mut self, other: &Ledger) {
        self.depth.absorb(&other.depth);
        self.walk.absorb(&other.walk);
        self.repair.absorb(&other.repair);
        self.donation.absorb(&other.donation);
        self.attr.absorb(&other.attr);
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            a.count += b.count;
            a.secs += b.secs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_bit_lengths() {
        // Bucket 0 is the value 0; bucket k is [2^(k-1), 2^k).
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        for k in 1..HIST_BUCKETS - 1 {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_of(lo), k, "lower edge of bucket {k}");
            assert_eq!(bucket_of(hi), k, "upper edge of bucket {k}");
        }
        // Everything past the top boundary clamps into the last bucket.
        assert_eq!(bucket_of(1 << (HIST_BUCKETS - 2)), HIST_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn observe_total_and_merge() {
        let mut a = Pow2Histogram::new();
        a.observe(0);
        a.observe(1);
        a.observe(7);
        assert_eq!(a.total(), 3);
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.buckets()[3], 1);
        let mut b = Pow2Histogram::new();
        b.observe(7);
        b.observe(1 << 20);
        b.absorb(&a);
        assert_eq!(b.total(), 5);
        assert_eq!(b.buckets()[3], 2);
        assert_eq!(b.buckets()[21], 1);
    }

    #[test]
    fn csv_roundtrip_truncates_after_last_nonzero() {
        let mut h = Pow2Histogram::new();
        assert_eq!(h.to_csv(), "0");
        h.observe(0);
        h.observe(5);
        let csv = h.to_csv();
        assert_eq!(csv, "1,0,0,1");
        // The cell reads back as the histogram's leading buckets, and
        // every bucket it leaves out is empty.
        let back: Vec<u64> = csv.split(',').map(|c| c.parse().unwrap()).collect();
        assert_eq!(back[..], h.buckets()[..back.len()]);
        assert!(h.buckets()[back.len()..].iter().all(|&c| c == 0));
    }

    #[test]
    fn ledger_absorbs_histograms_and_spans() {
        let mut l = Ledger::new();
        l.depth.observe(4);
        l.walk.observe(100);
        l.repair.observe(3);
        l.donation.observe(0);
        l.record_span(Phase::Preload, 0.5);
        l.record_span(Phase::Task, 0.25);
        l.record_span(Phase::Task, 0.25);
        assert_eq!(l.depth.total(), 1);
        assert_eq!(l.walk.total(), 1);
        assert_eq!(l.repair.total(), 1);
        assert_eq!(l.donation.total(), 1);
        assert_eq!(l.span(Phase::Task).count, 2);
        assert!((l.span(Phase::Task).secs - 0.5).abs() < 1e-12);
        assert_eq!(l.span(Phase::Solve).count, 0);

        let mut m = Ledger::new();
        m.depth.observe(4);
        m.record_span(Phase::Task, 1.0);
        m.absorb(&l);
        assert_eq!(m.depth.total(), 2);
        assert_eq!(m.span(Phase::Task).count, 3);
        assert!((m.span(Phase::Task).secs - 1.5).abs() < 1e-12);
    }

    /// The navigation word of a bit string (test helper mirroring the
    /// dyadic crate's encoding: sentinel 1 bit, then the string).
    fn nav(bits: &str) -> u64 {
        bits.chars()
            .fold(1u64, |n, c| (n << 1) | u64::from(c == '1'))
    }

    #[test]
    fn attribution_routes_by_prefix_and_spills_short_boxes() {
        let mut a = AttributionLedger::new();
        assert_eq!(a.short_row(), 256);
        // λ (nav 1), the invalid word 0, and intervals shorter than the
        // prefix all spill.
        assert_eq!(a.row_of(nav("")), 256);
        assert_eq!(a.row_of(0), 256);
        assert_eq!(a.row_of(nav("1")), 256);
        assert_eq!(a.row_of(nav("1011001")), 256);
        // Exactly the prefix width: the row is the value itself.
        assert_eq!(a.row_of(nav("00000000")), 0);
        assert_eq!(a.row_of(nav("10110010")), 178);
        // Longer intervals key on their top bits.
        assert_eq!(a.row_of(nav("1011001011")), 178);
        assert_eq!(a.row_of(nav("1111111111111")), 255);
        a.count_resolution(nav("1011001011"));
        a.count_resolution(nav("10110010"));
        a.count_re_resolution(nav("10110010"));
        a.count_insert(nav("00000001"));
        a.count_repair_hit(nav("1"));
        assert_eq!(a.rows()[178].resolutions, 2);
        assert_eq!(a.rows()[178].re_resolutions, 1);
        assert_eq!(a.rows()[1].inserts, 1);
        assert_eq!(a.rows()[a.short_row()].repair_hits, 1);
        assert_eq!(a.resolutions(), 2);
        assert_eq!(a.label(178), "10110010");
        assert_eq!(a.label(a.short_row()), "short");
    }

    #[test]
    fn attribution_merge_and_top_k() {
        let mut a = AttributionLedger::new();
        assert!(a.top_k(1).is_empty(), "an empty ledger has no hot rows");
        a.count_resolution(nav("10110010"));
        a.count_resolution(nav("101100101110"));
        a.count_insert(nav("10110010"));
        a.count_repair_hit(nav("0011"));
        let mut b = AttributionLedger::new();
        b.count_resolution(nav("10110010"));
        b.count_re_resolution(nav("0011"));
        a.absorb(&b);
        assert_eq!(a.resolutions(), 3);
        assert_eq!(a.re_resolutions(), 1);
        // Both long boxes share the 8-bit prefix 10110010 = 178.
        assert_eq!(a.rows()[178].resolutions, 3);
        assert_eq!(a.rows()[a.short_row()].repair_hits, 1);
        // top_k orders by resolutions, ties by row index.
        let top = a.top_k(2);
        assert_eq!(top[0].0, 178);
        assert_eq!(top[0].1.resolutions, 3);
    }

    #[test]
    fn flight_recorder_keeps_the_tail_and_counts_drops() {
        let mut r: FlightRecorder<u64> = FlightRecorder::new();
        let total = DEFAULT_TRACE_CAPACITY as u64 + 4;
        for i in 0..total {
            r.record(i);
        }
        assert_eq!(r.len(), DEFAULT_TRACE_CAPACITY);
        assert_eq!(r.recorded(), total);
        assert_eq!(r.dropped(), 4);
        assert_eq!(r.iter().next(), Some(&4));
        let tail = r.drain();
        assert_eq!(tail.len(), DEFAULT_TRACE_CAPACITY);
        assert!(tail.iter().copied().eq(4..total));
    }

    #[test]
    fn ledger_attribution_and_span_totals_merge() {
        let mut l = Ledger::new();
        l.attr.count_resolution(nav("10110010"));
        l.attr.count_re_resolution(nav("10110010"));
        l.attr.count_insert(nav("0"));
        l.attr.count_repair_hit(nav("11110000"));
        l.record_span(Phase::Task, 0.5);
        let mut m = Ledger::new();
        m.attr.count_resolution(nav("10110010"));
        m.record_span(Phase::Task, 0.25);
        m.absorb(&l);
        assert_eq!(m.attr.resolutions(), 2);
        assert_eq!(m.attr.re_resolutions(), 1);
        assert_eq!(m.attr.rows()[m.attr.short_row()].inserts, 1);
        assert_eq!(m.attr.repair_hits(), 1);
        assert_eq!(m.span(Phase::Task).count, 2);
    }
}
