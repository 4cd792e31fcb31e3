//! The probe machinery around [`crate::BoxTree`]: the probe-frontier
//! state, the per-frame frontier stack, the rolling insert log that makes
//! lagging frontiers repairable, and the insert cursor.
//!
//! # The containment-order contract
//!
//! `find_containing` (and its tracked variant) returns the **first hit
//! of the multilevel DFS**: stored prefixes are tried dimension by
//! dimension in SAO order, shorter prefixes first. The frontier repair
//! reproduces that order exactly, so a tracked probe's witness is
//! bit-identical to a fresh walk's — which is what keeps resolution
//! counts independent of the fast paths.

use crate::tree::BinaryEntry;
use dyadic::{DyadicBox, DyadicInterval, MAX_DIMS};

/// Maximum number of logged inserts a saved frontier may lag behind the
/// store and still be repaired in place; older frontiers fall back to a
/// full walk. It is also the insert ring's length, indexed by mask.
pub const REPAIR_CAP: u64 = 64;

const _: () = assert!(REPAIR_CAP.is_power_of_two());

/// Reusable state for [`crate::BoxTree::find_containing_tracked`]: the
/// frontier of the last failed probe, valid for the immediate child of
/// the recorded target, and for the child that ends the probed dimension
/// when it is probed on the next one. The frontier is *complete* with
/// respect to every insert before `mark`; up to [`REPAIR_CAP`] later
/// inserts can be repaired in from the store's rolling log. After the
/// first probe, a full walk happens only when the frontier lags by more
/// than that, after a clear or bulk load, when the next probe skips a
/// zero-width dimension, or when the target is not such a child.
///
/// Besides the frontier entries it keeps the next level's **roots**: the
/// live `next` links on the probed component's path, at every depth up
/// to `len`, under every tracked combination of earlier prefixes. They
/// are the positions a full walk would record one dimension further on,
/// so a probe that crosses into that dimension takes them as its
/// entries instead of re-walking the store (DESIGN.md §8).
///
/// The engine treats the frontier as opaque and reads only the
/// diagnostic counters.
#[derive(Debug, Default)]
pub struct DescentProbe {
    /// Recorded frontier positions, in DFS order.
    pub(crate) entries: Vec<BinaryEntry>,
    /// The next level's roots on the probed component's path, each with
    /// its prefix lengths through `dim` (the depth it hangs at is
    /// `lens[dim]`). Unordered until a crossing sorts them.
    pub(crate) roots: Vec<BinaryEntry>,
    /// The last failed probe's target (`None` = no valid frontier).
    pub(crate) last: Option<DyadicBox>,
    /// The probed dimension the frontier was recorded for.
    pub(crate) dim: u8,
    /// The recorded target's component length at `dim`.
    pub(crate) len: u8,
    /// Store insert count up to which `entries` is complete.
    pub(crate) mark: u64,
    /// Store clear count at recording time (node ids die with a clear,
    /// and the insert ring with a bulk load, which is stamped as one).
    pub(crate) clears: u32,
    /// Probes answered by advancing the recorded frontier (diagnostic).
    pub advances: u64,
    /// Probes answered by advance + insert-log repair (diagnostic).
    pub repairs: u64,
    /// Probes that fell back to a full walk (diagnostic).
    pub full_walks: u64,
    /// Insert-log lag of the most recent repair — the repair-window
    /// size. Written at every `repairs` increment, so an observer that
    /// sees `repairs` grow across a tracked call reads the window the
    /// repair scanned here (diagnostic; the store only writes it).
    pub last_repair_window: u64,
    /// Whether the most recent repair's window scan surfaced a lagging
    /// insert containing the probe. Written at every `repairs`
    /// increment, so an observer that sees `repairs` grow across a
    /// tracked call reads here whether that repair actually changed the
    /// answer (diagnostic; the store only writes it).
    pub last_repair_hit: bool,
}

impl DescentProbe {
    /// Fresh (invalid) state.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded frontier positions (the walk-length
    /// diagnostic).
    #[inline]
    pub fn frontier_len(&self) -> usize {
        self.entries.len()
    }

    /// Drop the recorded frontier (keeps allocated capacity).
    pub fn invalidate(&mut self) {
        self.last = None;
        self.entries.clear();
        self.roots.clear();
    }

    /// Whether two probes hold the same frontier: the same probed
    /// dimension and length, the same entries in the same order, and the
    /// same set of next-level roots. A carried frontier must equal the
    /// one a fresh full walk of the same target records; the
    /// store-conformance wall checks it with this.
    #[doc(hidden)]
    pub fn same_frontier(&self, other: &DescentProbe) -> bool {
        let dim = self.dim as usize;
        let pos = |e: &BinaryEntry, k: usize| (e.node, e.lens[..k].to_vec());
        let roots = |p: &DescentProbe| {
            let mut r: Vec<_> = p.roots.iter().map(|e| pos(e, dim + 1)).collect();
            r.sort();
            r
        };
        self.last.is_some()
            && other.last.is_some()
            && (self.dim, self.len) == (other.dim, other.len)
            && self
                .entries
                .iter()
                .map(|e| pos(e, dim))
                .eq(other.entries.iter().map(|e| pos(e, dim)))
            && roots(self) == roots(other)
    }
}

/// Per-frame saved probe frontiers, mirroring the engine's descent stack.
///
/// When the skeleton splits a target it has just probed (and missed), the
/// failed probe's frontier describes exactly the tree positions from
/// which *both* children's probes can be answered. The engine pushes a
/// copy here alongside the new frame; when it later descends the frame's
/// right sibling (the 1-side half), [`FrontierStack::restore_top`] turns
/// the saved frontier back into live [`DescentProbe`] state, and the next
/// tracked query advances (and, if resolvent inserts happened in between,
/// repairs) instead of re-walking the store from the root. Entries live
/// in one arena that grows and truncates with the stack, so saving a
/// frontier never allocates after warm-up.
#[derive(Debug, Default)]
pub struct FrontierStack {
    arena: Vec<BinaryEntry>,
    roots: Vec<BinaryEntry>,
    frames: Vec<SavedMeta>,
}

#[derive(Clone, Copy, Debug)]
struct SavedMeta {
    start: usize,
    roots_start: usize,
    dim: u8,
    len: u8,
    mark: u64,
    clears: u32,
}

impl FrontierStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of saved frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Save the frontier of the probe that just failed (the engine calls
    /// this exactly when it pushes the corresponding descent frame).
    #[inline]
    pub fn push_saved(&mut self, probe: &DescentProbe) {
        debug_assert!(probe.last.is_some(), "only failed probes have frontiers");
        self.frames.push(SavedMeta {
            start: self.arena.len(),
            roots_start: self.roots.len(),
            dim: probe.dim,
            len: probe.len,
            mark: probe.mark,
            clears: probe.clears,
        });
        self.arena.extend_from_slice(&probe.entries);
        self.roots.extend_from_slice(&probe.roots);
    }

    /// Discard the top frame's saved frontier (mirrors a frame pop).
    #[inline]
    pub fn pop(&mut self) {
        if let Some(m) = self.frames.pop() {
            self.arena.truncate(m.start);
            self.roots.truncate(m.roots_start);
        }
    }

    /// Drop everything (mirrors a descent teardown).
    #[inline]
    pub fn clear(&mut self) {
        self.frames.clear();
        self.arena.clear();
        self.roots.clear();
    }

    /// Restore the top frame's saved frontier and roots into `probe` as
    /// the failed probe of `parent` (the frame's reconstructed target), so
    /// the next tracked query for the parent's 1-side child advances it,
    /// and crosses into the next dimension when that child ends the
    /// parent's. Returns `false` when there is nothing to restore.
    #[inline]
    pub fn restore_top(&self, parent: &DyadicBox, probe: &mut DescentProbe) -> bool {
        let Some(m) = self.frames.last() else {
            return false;
        };
        debug_assert_eq!(m.len, parent.get(m.dim as usize).len());
        probe.entries.clear();
        probe.entries.extend_from_slice(&self.arena[m.start..]);
        probe.roots.clear();
        probe.roots.extend_from_slice(&self.roots[m.roots_start..]);
        probe.dim = m.dim;
        probe.len = m.len;
        probe.mark = m.mark;
        probe.clears = m.clears;
        probe.last = Some(*parent);
        true
    }
}

/// The store's rolling log of recent inserts: the window a lagging saved
/// frontier is repaired against, plus the monotone insert and clear
/// counters probe state is keyed on.
///
/// A repair only runs when the frontier lags by at most [`REPAIR_CAP`]
/// inserts, so no entry older than the last `REPAIR_CAP` is ever read:
/// the ring holds exactly that many, and insert `i` lives at
/// `i & (REPAIR_CAP − 1)`.
#[derive(Clone, Debug, Default)]
pub(crate) struct InsertLog {
    /// The last [`REPAIR_CAP`] inserts; allocated on first insert.
    ring: Vec<DyadicBox>,
    /// Novel inserts ever performed (monotone; not reset by clears).
    insert_count: u64,
    /// Times the store was cleared or bulk-loaded (invalidates saved
    /// frontiers: node ids die with a clear, the ring with a bulk load).
    clears: u32,
}

/// The ring slot of insert `i`.
#[inline]
fn slot(i: u64) -> usize {
    (i & (REPAIR_CAP - 1)) as usize
}

impl InsertLog {
    /// Record a novel insert of an `n`-dimensional box.
    pub(crate) fn record(&mut self, n: usize, b: &DyadicBox) {
        if self.ring.is_empty() {
            self.ring
                .resize(REPAIR_CAP as usize, DyadicBox::universe(n));
        }
        // Refresh only the live components: every ring box already has
        // the right dimensionality, and nothing reads past dimension `n`.
        let c = &mut self.ring[slot(self.insert_count)];
        for i in 0..n {
            c.set(i, b.get(i));
        }
        self.insert_count += 1;
    }

    /// Stamp a store clear (keeps the monotone insert count).
    pub(crate) fn note_clear(&mut self) {
        self.clears += 1;
    }

    /// Account for a bulk load of `novel` new boxes that wrote no ring
    /// entries: the insert count advances as if each had been recorded,
    /// and the load is stamped like a clear, so no frontier saved before
    /// it trusts the ring across it.
    pub(crate) fn note_bulk(&mut self, novel: u64) {
        self.insert_count += novel;
        self.clears += 1;
    }

    /// Novel inserts ever performed.
    pub(crate) fn insert_count(&self) -> u64 {
        self.insert_count
    }

    /// Clears ever performed.
    pub(crate) fn clears(&self) -> u32 {
        self.clears
    }

    /// How many inserts a frontier recorded at `mark` is missing.
    pub(crate) fn lag(&self, mark: u64) -> u64 {
        self.insert_count - mark
    }

    /// One pass over the window `[mark, insert_count)` serving a frontier
    /// repair that intends to **advance `mark` past the window**: returns
    /// the DFS-least containing insert (exactly `best_candidate`) and
    /// hands two kinds of window insert to the callbacks:
    ///
    /// * `graft`: an insert whose probed component reaches the probed
    ///   depth on the target's path, i.e. a tree position at the frontier
    ///   depth the recorded entries may not know about;
    /// * `root`: an insert that ends its probed component on the target's
    ///   path, shallower than the probed depth, and continues on a later
    ///   dimension, i.e. a next-level root the recorded roots may not
    ///   know about.
    ///
    /// Folding both into the probe state is what makes advancing `mark`
    /// sound: every other window insert is either a containment candidate
    /// (decided here, and decided identically by every deeper probe of
    /// the chain) or permanently incompatible with the chain's fixed
    /// earlier-dimension components.
    ///
    /// The caller must have checked `lag(mark) <= REPAIR_CAP`.
    pub(crate) fn scan_repair(
        &self,
        b: &DyadicBox,
        dim: usize,
        mark: u64,
        mut graft: impl FnMut(&DyadicBox),
        mut root: impl FnMut(&DyadicBox),
    ) -> Option<([u8; MAX_DIMS], DyadicBox)> {
        debug_assert!(self.lag(mark) <= REPAIR_CAP);
        let iv = b.get(dim);
        let mut best: Option<([u8; MAX_DIMS], DyadicBox)> = None;
        'window: for i in mark..self.insert_count {
            let c = &self.ring[slot(i)];
            for j in 0..dim {
                let (cj, bj) = (c.get(j), b.get(j));
                if cj.len() > bj.len() || bj.truncate(cj.len()) != cj {
                    continue 'window;
                }
            }
            let cd = c.get(dim);
            if cd.len() >= iv.len() && cd.truncate(iv.len()) == iv {
                graft(c);
            }
            if cd.len() > iv.len() || iv.truncate(cd.len()) != cd {
                continue;
            }
            // `c` ends its probed component on the target's path.
            if (dim + 1..b.n()).all(|j| c.get(j).is_lambda()) {
                let key = lens_key_of_box(c, dim);
                if best.as_ref().is_none_or(|(k, _)| key < *k) {
                    best = Some((key, *c));
                }
            } else if cd.len() < iv.len() {
                root(c);
            }
        }
        best
    }

    /// The DFS-least logged insert since `mark` that contains `b`, keyed
    /// by its [`lens_key_of_box`] — the candidate a frontier repair
    /// compares against the advanced frontier's own first hit. The
    /// reference [`InsertLog::scan_repair`] is tested against.
    ///
    /// The caller must have checked `lag(mark) <= REPAIR_CAP`.
    #[cfg(test)]
    pub(crate) fn best_candidate(
        &self,
        b: &DyadicBox,
        dim: usize,
        mark: u64,
    ) -> Option<([u8; MAX_DIMS], DyadicBox)> {
        debug_assert!(self.lag(mark) <= REPAIR_CAP);
        let mut best: Option<([u8; MAX_DIMS], DyadicBox)> = None;
        for i in mark..self.insert_count {
            let c = &self.ring[slot(i)];
            if c.contains(b) {
                let key = lens_key_of_box(c, dim);
                if best.as_ref().is_none_or(|(k, _)| key < *k) {
                    best = Some((key, *c));
                }
            }
        }
        best
    }
}

/// DFS-order key of a stored box for a probe on `dim`: the per-dimension
/// prefix lengths through `dim` (later dimensions are λ for any box that
/// can answer such a probe). The multilevel walk visits shorter prefixes
/// first dimension by dimension, so comparing these keys lexicographically
/// reproduces its first-hit order.
pub(crate) fn lens_key_of_box(c: &DyadicBox, dim: usize) -> [u8; MAX_DIMS] {
    let mut key = [0u8; MAX_DIMS];
    for (i, slot) in key.iter_mut().enumerate().take(dim + 1) {
        *slot = c.get(i).len();
    }
    key
}

/// The insert-side twin of the tracked probe: the node path of the most
/// recent insert, so the next insert can resume from where the two boxes
/// diverge instead of re-walking every bit of every component.
///
/// Resolvent streams are extremely local — an unwind merges siblings and
/// ascends one bit at a time, and a streamed preload feeds boxes in
/// sorted order — so the common case resumes within a few bits of the end. The
/// cached node ids stay valid because the tree is a push-only arena: the
/// only invalidating mutation is a full [`clear`], which resets the
/// cursor.
///
/// Layout: `path[base[i]]` is the node dimension `i`'s component starts
/// from (the level root reached through the `next` chain), followed by
/// one node per bit of that component.
///
/// [`clear`]: crate::BoxTree::clear
#[derive(Debug)]
pub(crate) struct InsertCursor {
    valid: bool,
    last: DyadicBox,
    path: Vec<u32>,
    base: [u16; MAX_DIMS],
}

impl InsertCursor {
    /// A cursor for an `n`-dimensional store rooted at `root`.
    pub(crate) fn new(n: usize, root: u32) -> Self {
        InsertCursor {
            valid: false,
            last: DyadicBox::universe(n),
            path: vec![root],
            base: [0; MAX_DIMS],
        }
    }

    /// Forget the cached path (the store was cleared).
    pub(crate) fn invalidate(&mut self, root: u32) {
        self.valid = false;
        self.path.clear();
        self.path.push(root);
        self.base = [0; MAX_DIMS];
    }

    /// Where the cached path stops covering `b`: `(dim, prefix_len)` such
    /// that the walk may resume from the cached node at that position.
    /// `(0, 0)` — the root — when no path is cached.
    pub(crate) fn resume_point(&self, b: &DyadicBox) -> (usize, u8) {
        if !self.valid {
            return (0, 0);
        }
        for dim in 0..b.n() {
            let (cur, prev) = (b.get(dim), self.last.get(dim));
            if cur != prev {
                return (dim, common_prefix(cur, prev));
            }
        }
        // Exact duplicate of the last insert: the full path is reusable.
        (b.n() - 1, b.get(b.n() - 1).len())
    }

    /// The cached node `len` bits into dimension `dim`'s component.
    pub(crate) fn node_at(&self, dim: usize, len: u8) -> u32 {
        self.path[self.base[dim] as usize + len as usize]
    }

    /// Drop the path past the resume point and re-aim the cursor at `b`;
    /// the caller then [`push`]es the nodes it walks.
    ///
    /// [`push`]: InsertCursor::push
    pub(crate) fn begin(&mut self, b: &DyadicBox, dim: usize, len: u8) {
        self.path
            .truncate(self.base[dim] as usize + len as usize + 1);
        // Components before the resume dimension are unchanged by
        // definition of the resume point; refresh only the tail instead
        // of copying the whole (fixed-capacity) box.
        for i in dim..b.n() {
            self.last.set(i, b.get(i));
        }
        self.valid = true;
    }

    /// Record the node reached by one more bit step.
    pub(crate) fn push(&mut self, node: u32) {
        self.path.push(node);
    }

    /// Record the level root dimension `dim`'s component starts from.
    pub(crate) fn start_dim(&mut self, dim: usize, node: u32) {
        self.base[dim] = self.path.len() as u16;
        self.path.push(node);
    }

    /// The node dimension `dim`'s component of `b` ends at.
    pub(crate) fn end_node(&self, dim: usize, b: &DyadicBox) -> u32 {
        self.node_at(dim, b.get(dim).len())
    }
}

/// Length of the longest common prefix of two dyadic intervals.
fn common_prefix(a: DyadicInterval, b: DyadicInterval) -> u8 {
    let (la, lb) = (a.len() as u32, b.len() as u32);
    let m = la.min(lb);
    if m == 0 {
        return 0;
    }
    // MSB-align both bitstrings; the first differing position is the
    // number of leading zeros of their XOR.
    let x = (a.bits() << (64 - la)) ^ (b.bits() << (64 - lb));
    x.leading_zeros().min(m) as u8
}

/// Whether `b` is `last` with exactly one bit appended at `dim`.
pub(crate) fn is_child_at(b: &DyadicBox, last: &DyadicBox, dim: usize) -> bool {
    for i in 0..b.n() {
        if i == dim {
            let (bi, li) = (b.get(i), last.get(i));
            if bi.len() != li.len() + 1 || bi.truncate(li.len()) != li {
                return false;
            }
        } else if b.get(i) != last.get(i) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> DyadicBox {
        DyadicBox::parse(s).unwrap()
    }

    #[test]
    fn insert_log_rolls_and_ranks() {
        let mut log = InsertLog::default();
        assert_eq!(log.insert_count(), 0);
        log.record(2, &b("0,λ"));
        log.record(2, &b("λ,λ"));
        log.record(2, &b("00,λ"));
        assert_eq!(log.insert_count(), 3);
        assert_eq!(log.lag(1), 2);
        // The DFS-least candidate containing ⟨00,1⟩ among the lagging
        // inserts is the shortest-prefix one, ⟨λ,λ⟩.
        let (key, best) = log.best_candidate(&b("00,1"), 0, 0).unwrap();
        assert_eq!(best, b("λ,λ"));
        assert_eq!(key[0], 0);
        // From mark 2 only ⟨00,λ⟩ is lagging.
        let (_, best) = log.best_candidate(&b("00,1"), 0, 2).unwrap();
        assert_eq!(best, b("00,λ"));
        // A probe outside every lagging insert has no candidate.
        let mut disjoint = InsertLog::default();
        disjoint.record(2, &b("0,λ"));
        assert!(disjoint.best_candidate(&b("11,1"), 0, 0).is_none());
        // A clear is stamped; the monotone insert count survives it.
        log.note_clear();
        assert_eq!(log.clears(), 1);
        assert_eq!(log.insert_count(), 3);
    }

    #[test]
    fn ring_keeps_the_full_repair_window() {
        // Past several wraps, the window of the last REPAIR_CAP inserts
        // is intact: its oldest entry is still read, and a window that
        // starts one insert later no longer sees it.
        let mut log = InsertLog::default();
        let total = 3 * REPAIR_CAP + 5;
        let oldest = total - REPAIR_CAP;
        for i in 0..total {
            let bx = if i == oldest { b("1,λ") } else { b("00,0") };
            log.record(2, &bx);
        }
        assert_eq!(log.lag(oldest), REPAIR_CAP);
        let (_, best) = log.best_candidate(&b("11,1"), 0, oldest).unwrap();
        assert_eq!(best, b("1,λ"));
        assert!(log.best_candidate(&b("11,1"), 0, oldest + 1).is_none());
    }

    #[test]
    fn child_relation() {
        assert!(is_child_at(&b("01,1"), &b("0,1"), 0));
        assert!(!is_child_at(&b("11,1"), &b("0,1"), 0));
        assert!(!is_child_at(&b("01,11"), &b("0,1"), 0));
        assert!(is_child_at(&b("0,10"), &b("0,1"), 1));
    }
}
