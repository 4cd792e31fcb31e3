//! The multilevel dyadic tree (paper Appendix C.1): the knowledge base
//! every Tetris engine runs on.

use crate::store::{
    is_child_at, lens_key_of_box, DescentProbe, InsertCursor, InsertLog, REPAIR_CAP,
};
use dyadic::{DyadicBox, DyadicInterval, MAX_DIMS};

mod bulk;
pub use bulk::SortedTrie;

/// The top bit of a node's `link` word: the **λ-tail bit** (see
/// [`Node`]). Every link — child or `next` — is a 31-bit id or sentinel.
const LAM: u32 = 1 << 31;

/// Sentinel for "no node".
const NONE: u32 = LAM - 1;

/// Sentinel for an **implicit λ-tail leaf**: a position where exactly
/// one stored box ends, λ on every later dimension, with nothing passing
/// through. Such a position says nothing its parent's slot could not, so
/// it gets no node; walks read it as [`Node::LEAF`].
const LEAF: u32 = LAM - 2;

/// Slot index of the `next` link in [`BoxTree::step`] (0 and 1 are the
/// child bits).
const NEXT: usize = 2;

/// One node of one level's dyadic (binary) tree, in 12 bytes.
///
/// `children[b]` follows bit `b` of the current dimension's bitstring.
/// The low 31 bits of `link` hold `next`, the root of the *next level's*
/// tree for boxes whose current component ends at this node (`NONE` at
/// the last level). The top bit ([`LAM`]) is the λ-tail fact — "a stored
/// box ends its component at this node and is λ on every later
/// dimension" — the question every frontier advance asks per surviving
/// entry. At the last level that fact is exactly "a stored box ends
/// here", so the bit doubles as the terminal mark. It is set on insert
/// and bulk load (the only other mutation is a full clear, which resets
/// every node), turning an up-to-`n`-hop pointer chase into one bit read
/// on a line the advance already touches. Any link may instead be
/// [`LEAF`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Node {
    children: [u32; 2],
    link: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 12);

impl Node {
    const EMPTY: Node = Node {
        children: [NONE, NONE],
        link: NONE,
    };

    /// What a [`LEAF`] link reads as: λ-tail bit set, no children, `next`
    /// another leaf. (Walks read `next` only below the last level.)
    const LEAF: Node = Node {
        children: [NONE, NONE],
        link: LAM | LEAF,
    };

    /// The real node a leaf on level `level` of an `n`-level store
    /// becomes once a later box must pass through it: the same facts,
    /// with writable slots.
    fn from_leaf(level: usize, n: usize) -> Node {
        let next = if level + 1 == n { NONE } else { LEAF };
        Node {
            link: LAM | next,
            ..Node::LEAF
        }
    }

    /// The next level's root (`NONE` at the last level).
    #[inline]
    fn next(&self) -> u32 {
        self.link & !LAM
    }

    /// The λ-tail bit; at the last level, whether a stored box ends here.
    #[inline]
    fn lam(&self) -> bool {
        self.link & LAM != 0
    }
}

/// A set of `n`-dimensional dyadic boxes stored as a multilevel dyadic
/// tree: one binary trie per dimension, chained through `next` pointers.
///
/// Supports insertion, exact-duplicate detection, and the containment
/// queries Tetris needs. Nodes live in a single arena (`Vec`) addressed by
/// `u32` ids — no per-node allocation, cheap to clear and reuse. λ-tail
/// ends take no node at all: their parent's slot holds the `LEAF`
/// sentinel (see DESIGN.md §2, "Implicit leaves").
///
/// ```
/// use boxstore::BoxTree;
/// use dyadic::DyadicBox;
///
/// let mut t = BoxTree::new(2);
/// t.insert(&DyadicBox::parse("0,λ").unwrap());
/// t.insert(&DyadicBox::parse("10,1").unwrap());
/// // ⟨0,λ⟩ contains ⟨01,11⟩:
/// let probe = DyadicBox::parse("01,11").unwrap();
/// assert_eq!(t.find_containing(&probe), DyadicBox::parse("0,λ"));
/// ```
#[derive(Debug)]
pub struct BoxTree {
    nodes: Vec<Node>,
    root: u32,
    n: usize,
    len: usize,
    epoch: u64,
    /// Rolling log of recent inserts + the monotone insert/clear counters
    /// probe state is keyed on. This is what lets a frontier saved
    /// *before* a handful of inserts be advanced+repaired instead of
    /// re-walked.
    log: InsertLog,
    /// Node path of the previous insert: consecutive inserts resume from
    /// the divergence point instead of re-walking the shared prefix.
    cursor: InsertCursor,
}

/// One extendable tree position of a failed probe: the node reached at
/// the target's full depth on the probed dimension, plus the stored
/// prefix lengths chosen on the earlier dimensions (enough to rebuild the
/// witness box on a later hit).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BinaryEntry {
    pub(crate) node: u32,
    pub(crate) lens: [u8; MAX_DIMS],
}

impl BoxTree {
    /// An empty store for `n`-dimensional boxes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "boxes must have at least one dimension");
        let mut nodes = Vec::with_capacity(1024);
        nodes.push(Node::EMPTY); // level-0 root
        BoxTree {
            nodes,
            root: 0,
            n,
            len: 0,
            epoch: 0,
            log: InsertLog::default(),
            cursor: InsertCursor::new(n, 0),
        }
    }

    /// Number of dimensions.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored boxes (exact duplicates are stored once).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of arena nodes (memory diagnostic).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The store's memory ledger: arena nodes, `size_of`-exact bytes
    /// held by the arena, and the longest root-to-node link chain in
    /// hops (the walk an adversarial full probe would pay). An O(nodes)
    /// traversal — a diagnostic for profile reports, never called on
    /// the hot path.
    pub fn mem_stats(&self) -> obs::MemStats {
        // Every node has exactly one parent link (child or `next`), so
        // the arena is a tree rooted at `root` and one stack walk visits
        // each node once. Implicit leaves are not nodes: no load, no depth.
        let mut max_depth = 0u64;
        let mut stack: Vec<(u32, u64)> = vec![(self.root, 0)];
        while let Some((id, d)) = stack.pop() {
            max_depth = max_depth.max(d);
            let node = &self.nodes[id as usize];
            for link in [node.children[0], node.children[1], node.next()] {
                if link != NONE && link != LEAF {
                    stack.push((link, d + 1));
                }
            }
        }
        obs::MemStats {
            nodes: self.nodes.len() as u64,
            bytes: (self.nodes.len() * std::mem::size_of::<Node>()) as u64,
            max_depth,
        }
    }

    /// Whether two stores hold byte-identical arenas: the same nodes, in
    /// the same order, with the same links. Equivalence tests compare
    /// the bulk preload against per-box inserts with it.
    #[doc(hidden)]
    pub fn arena_eq(&self, other: &BoxTree) -> bool {
        self.n == other.n && self.root == other.root && self.nodes == other.nodes
    }

    /// The **coverage epoch**: a counter bumped every time the stored set
    /// actually changes (novel insert, one per novel box of a
    /// [`BoxTree::bulk_load_trie`], or [`BoxTree::clear`]). Because the
    /// stored set only grows between clears, any *positive* containment
    /// fact ("some stored box ⊇ `b`") observed at epoch `e` stays true at
    /// every later epoch, while a *negative* fact is only valid while the
    /// epoch is unchanged. [`crate::CoverageMarks`] builds on exactly this
    /// contract to let callers skip re-walking the tree.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Remove all boxes, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::EMPTY);
        self.root = 0;
        self.len = 0;
        // A clear changes the stored set, so cached positive facts become
        // stale too; advancing the epoch keeps the monotonicity contract.
        self.epoch += 1;
        // Saved frontiers hold node ids; a clear invalidates them all —
        // including the insert cursor's cached path.
        self.log.note_clear();
        self.cursor.invalidate(self.root);
    }

    fn alloc(&mut self) -> u32 {
        // `LEAF` and `NONE` are the two largest 31-bit values, so real
        // ids stay below `LEAF`; guard before allocating rather than
        // silently truncating node ids (or minting a sentinel, or
        // spilling into the λ-tail bit) on huge stores.
        assert!(
            self.nodes.len() < LEAF as usize,
            "BoxTree: node-id space (31 bits) exhausted"
        );
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::EMPTY);
        id
    }

    /// The node behind a link; a [`LEAF`] reads as [`Node::LEAF`].
    #[inline]
    fn node(&self, id: u32) -> Node {
        if id == LEAF {
            Node::LEAF
        } else {
            self.nodes[id as usize]
        }
    }

    /// The link `slot` (a child bit or [`NEXT`]) of real node `parent`.
    fn link(&self, parent: u32, slot: usize) -> u32 {
        let nd = &self.nodes[parent as usize];
        if slot == NEXT {
            nd.next()
        } else {
            nd.children[slot]
        }
    }

    /// Point the link `slot` of real node `parent` at `to`. A `next`
    /// write keeps the node's λ-tail bit: only the id moves.
    fn set_link(&mut self, parent: u32, slot: usize, to: u32) {
        let nd = &mut self.nodes[parent as usize];
        if slot == NEXT {
            nd.link = (nd.link & LAM) | to;
        } else {
            nd.children[slot] = to;
        }
    }

    /// One insert step from `parent` through `slot` to a position on
    /// `level`, returning the position's id. `in_tail` says the inserted
    /// box's path from this position on is its λ-tail chain. The first
    /// step that yields a [`LEAF`] records in `leaf_fresh` whether the box
    /// is new; every later step of that insert stays on the leaf.
    fn step(
        &mut self,
        parent: u32,
        slot: usize,
        level: usize,
        in_tail: bool,
        leaf_fresh: &mut Option<bool>,
    ) -> u32 {
        if parent == LEAF {
            return LEAF; // the rest of the λ-tail is implicit
        }
        let link = self.link(parent, slot);
        match link {
            NONE if in_tail => {
                self.set_link(parent, slot, LEAF);
                *leaf_fresh = Some(true);
                LEAF
            }
            // Both paths are this leaf's λ-tail chain: the same box.
            LEAF if in_tail => {
                *leaf_fresh = Some(false);
                LEAF
            }
            // The box must pass through.
            NONE | LEAF => self.materialize(parent, slot, level, link),
            real => real,
        }
    }

    /// Allocate the position behind `link` — `NONE` or a [`LEAF`] in slot
    /// `slot` of real node `parent` — as a real node on `level`, keeping
    /// the leaf's facts if one was here.
    #[inline]
    fn materialize(&mut self, parent: u32, slot: usize, level: usize, link: u32) -> u32 {
        let id = self.alloc();
        if link == LEAF {
            self.nodes[id as usize] = Node::from_leaf(level, self.n);
        }
        self.set_link(parent, slot, id);
        id
    }

    /// Insert a box. Returns `true` if it was new, `false` if this exact
    /// box was already stored.
    ///
    /// The walk resumes from the previous insert's cached node path at
    /// the first diverging bit, so the highly local resolvent/preload
    /// streams pay only for their divergence tails, not the shared
    /// prefixes (see the crate-private `InsertCursor` in `store.rs`).
    ///
    /// # Panics
    /// If the box has the wrong dimensionality.
    pub fn insert(&mut self, b: &DyadicBox) -> bool {
        assert_eq!(b.n(), self.n, "box dimensionality mismatch");
        let (mut start_dim, mut start_len) = self.cursor.resume_point(b);
        // A leaf has no slots to walk through. Leaves only ever trail the
        // cached path, so back up to the real parent of the first one.
        while self.cursor.node_at(start_dim, start_len) == LEAF {
            if start_len > 0 {
                start_len -= 1;
            } else {
                start_dim -= 1;
                start_len = b.get(start_dim).len();
            }
        }
        let mut node = self.cursor.node_at(start_dim, start_len);
        self.cursor.begin(b, start_dim, start_len);
        // The λ-tail chain starts where the last non-λ component ends
        // (the root for the universe box); positions `>= tail` are on it.
        let t0 = (0..self.n)
            .rev()
            .find(|&i| !b.get(i).is_lambda())
            .unwrap_or(0);
        let tail = (t0, b.get(t0).len());
        let mut leaf_fresh = None;
        for dim in start_dim..self.n {
            let iv = b.get(dim);
            let from = if dim == start_dim { start_len } else { 0 };
            for k in from..iv.len() {
                let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
                node = self.step(node, bit, dim, (dim, k + 1) >= tail, &mut leaf_fresh);
                self.cursor.push(node);
            }
            if dim + 1 < self.n {
                node = self.step(node, NEXT, dim + 1, (dim + 1, 0) >= tail, &mut leaf_fresh);
                self.cursor.start_dim(dim + 1, node);
            }
        }
        #[cfg(debug_assertions)]
        self.debug_check_cursor(b);
        // The final node's λ-tail bit is its terminal mark, and the loop
        // below sets it: read it first, or every fresh box ending at an
        // existing real node would read as a duplicate.
        let fresh = leaf_fresh.unwrap_or_else(|| !self.nodes[node as usize].lam());
        // Every real end-of-component node on the λ-tail chain gains the
        // λ-tail fact (a leaf has it implicitly); all of them sit on the
        // cursor path, the final node last.
        for i in t0..self.n {
            let e = self.cursor.end_node(i, b);
            if e != LEAF {
                self.nodes[e as usize].link |= LAM;
            }
        }
        if fresh {
            self.len += 1;
            self.epoch += 1;
            self.log.record(self.n, b);
        }
        fresh
    }

    /// Debug oracle for the insert cursor: after an insert of `b`, the
    /// cached path must be exactly the node walk of `b` from the root.
    #[cfg(debug_assertions)]
    fn debug_check_cursor(&self, b: &DyadicBox) {
        let mut node = self.root;
        for dim in 0..self.n {
            assert_eq!(self.cursor.node_at(dim, 0), node, "cursor level root");
            let iv = b.get(dim);
            for k in 0..iv.len() {
                let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
                node = self.node(node).children[bit];
                assert_eq!(self.cursor.node_at(dim, k + 1), node, "cursor bit node");
            }
            if dim + 1 < self.n {
                node = self.node(node).next();
            }
        }
    }

    /// Whether this exact box is stored.
    pub fn contains_exact(&self, b: &DyadicBox) -> bool {
        debug_assert_eq!(b.n(), self.n);
        let mut node = self.root;
        for dim in 0..self.n {
            let iv = b.get(dim);
            for k in 0..iv.len() {
                let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
                let child = self.node(node).children[bit];
                if child == NONE {
                    return false;
                }
                node = child;
            }
            if dim + 1 < self.n {
                let next = self.node(node).next();
                if next == NONE {
                    return false;
                }
                node = next;
            }
        }
        self.node(node).lam()
    }

    /// Find one stored box `a ⊇ b`, if any (Algorithm 1, line 1).
    ///
    /// Prefers boxes with shorter components (found earlier on the walk),
    /// i.e. geometrically larger witnesses.
    ///
    /// This is the engine's hottest query, so it uses a dedicated
    /// monomorphic walker (no closure dispatch) that returns at the first
    /// terminal it reaches.
    pub fn find_containing(&self, b: &DyadicBox) -> Option<DyadicBox> {
        debug_assert_eq!(b.n(), self.n);
        let mut scratch = DyadicBox::universe(self.n);
        if self.first_containing(self.root, 0, b, &mut scratch) {
            Some(scratch)
        } else {
            None
        }
    }

    /// First-hit DFS: on success `scratch` holds the witness.
    fn first_containing(
        &self,
        root: u32,
        dim: usize,
        b: &DyadicBox,
        scratch: &mut DyadicBox,
    ) -> bool {
        let iv = b.get(dim);
        let last = dim + 1 == self.n;
        let mut node = root;
        let mut k = 0u8;
        loop {
            let nd = self.node(node);
            if last {
                if nd.lam() {
                    scratch.set(dim, iv.truncate(k));
                    return true;
                }
            } else if nd.next() != NONE {
                scratch.set(dim, iv.truncate(k));
                if self.first_containing(nd.next(), dim + 1, b, scratch) {
                    return true;
                }
            }
            if k == iv.len() {
                return false;
            }
            let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
            let child = nd.children[bit];
            if child == NONE {
                return false;
            }
            node = child;
            k += 1;
        }
    }

    /// Whether some stored box contains `b`.
    pub fn covers(&self, b: &DyadicBox) -> bool {
        self.find_containing(b).is_some()
    }

    /// [`BoxTree::find_containing`] with an **incremental-descent fast
    /// path**. `dim` is the probe target's first thick dimension (the one
    /// the skeleton last extended; pass `n − 1` for unit boxes). The
    /// target must be `λ` on every dimension after `dim`.
    ///
    /// A failed probe records, in `state`, the set of tree positions
    /// compatible with the target (one per combination of stored prefixes
    /// on the earlier dimensions) together with the store's insert count,
    /// and the next level's roots on the target's path. When the next
    /// probe is for a **child** of the last target (one bit appended at
    /// `dim`) *at the same count*, the recorded frontier is advanced by
    /// that single bit instead of re-walking the tree from the root. This
    /// is exact, not heuristic: at an unchanged store, any witness for the
    /// child whose `dim` component were shorter than the child's would
    /// also contain the already-probed parent — so only positions at full
    /// depth (the recorded ones, advanced) can produce a hit, and scanning
    /// them in recorded (DFS) order returns the identical witness the full
    /// walk would find.
    ///
    /// When the child is probed on the **next** dimension (`dim` is one
    /// past the recorded one and the child is `λ` there: the appended bit
    /// ended the recorded dimension), the frontier is advanced the same
    /// way and then *crosses*: the recorded roots, sorted into DFS order,
    /// become the new frontier. A frontier that lags the store by up to
    /// [`REPAIR_CAP`] inserts is repaired from the insert log on the way.
    /// After the first probe, a full walk therefore means a lag above
    /// [`REPAIR_CAP`], a clear or bulk load since the frontier was
    /// recorded, a zero-width dimension between the two probed ones, or a
    /// target that is no such child.
    pub fn find_containing_tracked(
        &self,
        b: &DyadicBox,
        dim: usize,
        state: &mut DescentProbe,
    ) -> Option<DyadicBox> {
        debug_assert_eq!(b.n(), self.n);
        debug_assert!(dim < self.n);
        if let Some(last) = state.last {
            let sd = state.dim as usize;
            // The child probed on the recorded dimension, or the child
            // that ends it, probed on the next one (the crossing).
            let crossing = dim == sd + 1 && b.get(dim).is_lambda();
            if state.clears == self.log.clears()
                && (dim == sd || crossing)
                && b.get(sd).len() == state.len + 1
                && is_child_at(b, &last, sd)
            {
                // How many inserts the recorded frontier is missing. The
                // frontier is complete w.r.t. every insert before
                // `state.mark`; the rest live in the rolling log.
                let lag = self.log.lag(state.mark);
                if lag <= REPAIR_CAP {
                    let hit = if lag == 0 {
                        state.advances += 1;
                        self.advance_probe(b, sd, state)
                    } else {
                        state.repairs += 1;
                        state.last_repair_window = lag;
                        self.advance_repair(b, sd, state)
                    };
                    if crossing && hit.is_none() {
                        self.cross(state);
                    }
                    return hit;
                }
            }
        }
        state.full_walks += 1;
        self.full_probe(b, dim, state)
    }

    /// Carry a missed probe's frontier from the dimension it just ended
    /// into the next one: the recorded roots are exactly the positions a
    /// full walk of the next dimension records, one per root, and sorting
    /// them by their prefix lengths puts them in that walk's DFS order.
    /// Each new entry's live `next` link becomes a root in turn.
    fn cross(&self, state: &mut DescentProbe) {
        let d = state.dim as usize;
        state
            .roots
            .sort_unstable_by(|a, b| a.lens[..=d].cmp(&b.lens[..=d]));
        debug_assert!(
            state
                .roots
                .windows(2)
                .all(|w| w[0].lens[..=d] < w[1].lens[..=d]),
            "a root was recorded twice"
        );
        std::mem::swap(&mut state.entries, &mut state.roots);
        state.roots.clear();
        for e in &state.entries {
            // A box λ from level d+1 on would have set the λ-tail bit on
            // its level-d end node, where the advance looked for hits.
            debug_assert!(!self.lambda_tail(e.node, d + 1), "a root hits");
            let next = self.nodes[e.node as usize].next();
            if next != NONE {
                let mut lens = e.lens;
                lens[d + 1] = 0;
                state.roots.push(BinaryEntry { node: next, lens });
            }
        }
        state.dim += 1;
        state.len = 0;
    }

    /// Advance the recorded frontier by the one bit appended at `dim`.
    fn advance_probe(
        &self,
        b: &DyadicBox,
        dim: usize,
        state: &mut DescentProbe,
    ) -> Option<DyadicBox> {
        let iv = b.get(dim);
        let bit = (iv.bits() & 1) as usize;
        let mut kept = 0;
        for idx in 0..state.entries.len() {
            let mut e = state.entries[idx];
            let child = self.nodes[e.node as usize].children[bit];
            if child == NONE {
                continue;
            }
            e.node = child;
            if self.lambda_tail(child, dim) {
                // Same witness the full walk's DFS would reach first.
                let mut w = DyadicBox::universe(self.n);
                for i in 0..dim {
                    w.set(i, b.get(i).truncate(e.lens[i]));
                }
                w.set(dim, iv);
                state.invalidate(); // covered: the descent stops here
                return Some(w);
            }
            self.note_root(&mut state.roots, e, dim, iv.len());
            state.entries[kept] = e;
            kept += 1;
        }
        state.entries.truncate(kept);
        state.len = iv.len();
        // The chain check proved `last == b` except the appended bit, so
        // refresh only the probed component instead of copying the box.
        match state.last.as_mut() {
            Some(l) => l.set(dim, iv),
            None => state.last = Some(*b),
        }
        None
    }

    /// [`BoxTree::advance_probe`] for a frontier that lags the store by up
    /// to [`REPAIR_CAP`] inserts: advance the recorded positions by the
    /// appended bit *and* check the lagging inserts (from the rolling log)
    /// directly, returning whichever hit the full walk's DFS would reach
    /// first. The frontier was complete when recorded, so any witness it
    /// cannot see must be one of the logged boxes — comparing the two
    /// candidates by their per-dimension prefix-length vector (the DFS
    /// visit order) reproduces the full walk's first hit exactly.
    fn advance_repair(
        &self,
        b: &DyadicBox,
        dim: usize,
        state: &mut DescentProbe,
    ) -> Option<DyadicBox> {
        let iv = b.get(dim);
        // Best candidate among the lagging inserts, keyed by DFS order —
        // plus the grafts (lagging inserts that reach the probed position
        // on the target's path) and the new roots (lagging inserts that
        // end their component on the path and continue), which must join
        // the entries and the roots so `mark` can advance past this
        // window (see [`InsertLog::scan_repair`]).
        let mut grafts: Vec<DyadicBox> = Vec::new();
        let mut new_roots: Vec<DyadicBox> = Vec::new();
        let best_new = self.log.scan_repair(
            b,
            dim,
            state.mark,
            |c| grafts.push(*c),
            |c| new_roots.push(*c),
        );
        state.last_repair_hit = best_new.is_some();
        // First hit among the recorded (pre-mark) positions. Entries are
        // stored in DFS order, so the first hit is also the DFS-least.
        let bit = (iv.bits() & 1) as usize;
        let mut kept = 0;
        let mut old_hit: Option<([u8; MAX_DIMS], DyadicBox)> = None;
        for idx in 0..state.entries.len() {
            let mut e = state.entries[idx];
            let child = self.nodes[e.node as usize].children[bit];
            if child == NONE {
                continue;
            }
            e.node = child;
            if self.lambda_tail(child, dim) {
                let mut w = DyadicBox::universe(self.n);
                let mut key = [0u8; MAX_DIMS];
                for (i, &len) in e.lens.iter().enumerate().take(dim) {
                    w.set(i, b.get(i).truncate(len));
                    key[i] = len;
                }
                w.set(dim, iv);
                key[dim] = iv.len();
                old_hit = Some((key, w));
                break;
            }
            self.note_root(&mut state.roots, e, dim, iv.len());
            state.entries[kept] = e;
            kept += 1;
        }
        let hit = match (old_hit, best_new) {
            (Some((ko, wo)), Some((kn, wn))) => Some(if kn < ko { wn } else { wo }),
            (Some((_, w)), None) | (None, Some((_, w))) => Some(w),
            (None, None) => None,
        };
        if hit.is_some() {
            state.invalidate(); // covered: the descent stops here
            return hit;
        }
        state.entries.truncate(kept);
        // Fold the grafts into the (DFS-ordered) entries and the new roots
        // into the roots, then advance `mark` past the window: each
        // lagging insert is thereby examined once per chain, not once per
        // subsequent advance.
        for c in &grafts {
            let node = self.path_node(c, dim, iv.len());
            if state.entries.iter().any(|e| e.node == node) {
                continue; // the position was already tracked
            }
            let e = BinaryEntry {
                node,
                lens: lens_key_of_box(c, dim),
            };
            self.note_root(&mut state.roots, e, dim, iv.len());
            let pos = state
                .entries
                .partition_point(|x| x.lens[..dim] <= e.lens[..dim]);
            state.entries.insert(pos, e);
        }
        for c in &new_roots {
            let depth = c.get(dim).len();
            let node = self.nodes[self.path_node(c, dim, depth) as usize].next();
            debug_assert!(
                node != NONE && node != LEAF,
                "{c} continues past level {dim}"
            );
            if !state.roots.iter().any(|r| r.node == node) {
                let lens = lens_key_of_box(c, dim);
                state.roots.push(BinaryEntry { node, lens });
            }
        }
        state.mark = self.log.insert_count();
        state.len = iv.len();
        // As in `advance_probe`: only the probed component changed.
        match state.last.as_mut() {
            Some(l) => l.set(dim, iv),
            None => state.last = Some(*b),
        }
        None
    }

    /// The tree node an insert of `c` reached `depth` bits into level
    /// `dim`: `c`'s earlier-dimension components followed by the first
    /// `depth` bits of `c[dim]`. Read-only: every node on the path exists
    /// because `c` itself was inserted through it.
    fn path_node(&self, c: &DyadicBox, dim: usize, depth: u8) -> u32 {
        let mut node = self.root;
        for j in 0..dim {
            let cv = c.get(j);
            for k in 0..cv.len() {
                let bit = ((cv.bits() >> (cv.len() - 1 - k)) & 1) as usize;
                node = self.node(node).children[bit];
            }
            node = self.node(node).next();
        }
        let cv = c.get(dim);
        for k in 0..depth {
            let bit = ((cv.bits() >> (cv.len() - 1 - k)) & 1) as usize;
            node = self.node(node).children[bit];
        }
        node
    }

    /// Record `e`'s next-level root, if its node at `depth` bits into
    /// level `dim` has one. `e.node` is real: a leaf would have been a hit.
    #[inline]
    fn note_root(&self, roots: &mut Vec<BinaryEntry>, e: BinaryEntry, dim: usize, depth: u8) {
        let next = self.nodes[e.node as usize].next();
        if next != NONE {
            let mut lens = e.lens;
            lens[dim] = depth;
            roots.push(BinaryEntry { node: next, lens });
        }
    }

    /// Whether a box ends through `node` at level `dim` with `λ`
    /// components on every later dimension — answered from the bit
    /// maintained by [`BoxTree::insert`], checked against the chain walk
    /// under debug assertions. A [`LEAF`] answers from the parent's slot
    /// alone, without loading a node.
    fn lambda_tail(&self, node: u32, _dim: usize) -> bool {
        let cached = node == LEAF || self.nodes[node as usize].lam();
        #[cfg(debug_assertions)]
        debug_assert_eq!(cached, self.lambda_tail_walk(node, _dim));
        cached
    }

    /// The uncached λ-tail chain walk (debug oracle for the cached bit).
    #[cfg(debug_assertions)]
    fn lambda_tail_walk(&self, node: u32, dim: usize) -> bool {
        let mut x = node;
        for d in dim..self.n {
            let nd = self.node(x);
            if d + 1 == self.n {
                return nd.lam();
            }
            if nd.next() == NONE {
                return false;
            }
            x = nd.next();
        }
        unreachable!("loop returns at the last level")
    }

    /// Full walk that records the frontier for later advancing.
    fn full_probe(&self, b: &DyadicBox, dim: usize, state: &mut DescentProbe) -> Option<DyadicBox> {
        state.entries.clear();
        state.roots.clear();
        let mut lens = [0u8; MAX_DIMS];
        let mut scratch = DyadicBox::universe(self.n);
        if self.walk_record(self.root, 0, b, dim, &mut lens, &mut scratch, state) {
            state.last = None; // covered targets are never extended
            Some(scratch)
        } else {
            state.dim = dim as u8;
            state.len = b.get(dim).len();
            state.mark = self.log.insert_count();
            state.clears = self.log.clears();
            state.last = Some(*b);
            None
        }
    }

    /// First-hit DFS that also records every position at `(dim, |b[dim]|)`
    /// (the extendable frontier) into `state.entries`, and every live
    /// `next` link on level `dim` (the next level's roots) into
    /// `state.roots`.
    #[allow(clippy::too_many_arguments)]
    fn walk_record(
        &self,
        root: u32,
        level: usize,
        b: &DyadicBox,
        dim: usize,
        lens: &mut [u8; MAX_DIMS],
        scratch: &mut DyadicBox,
        state: &mut DescentProbe,
    ) -> bool {
        let iv = b.get(level);
        let last = level + 1 == self.n;
        let mut node = root;
        let mut k = 0u8;
        loop {
            if level == dim && k == iv.len() {
                state.entries.push(BinaryEntry { node, lens: *lens });
            }
            let nd = self.node(node);
            if last {
                if nd.lam() {
                    scratch.set(level, iv.truncate(k));
                    return true;
                }
            } else if nd.next() != NONE {
                scratch.set(level, iv.truncate(k));
                lens[level] = k;
                if level == dim {
                    state.roots.push(BinaryEntry {
                        node: nd.next(),
                        lens: *lens,
                    });
                }
                if self.walk_record(nd.next(), level + 1, b, dim, lens, scratch, state) {
                    return true;
                }
            }
            if k == iv.len() {
                return false;
            }
            let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
            let child = nd.children[bit];
            if child == NONE {
                return false;
            }
            node = child;
            k += 1;
        }
    }

    /// Collect **all** stored boxes containing `b` (oracle access,
    /// Algorithm 2 line 4) into a caller-owned buffer, cleared first, so
    /// per-probe allocation is amortized across a run. By Proposition
    /// B.12 there are at most `∏ᵢ(dᵢ+1)` of them.
    pub fn all_containing_into(&self, b: &DyadicBox, out: &mut Vec<DyadicBox>) {
        debug_assert_eq!(b.n(), self.n);
        out.clear();
        let mut scratch = DyadicBox::universe(self.n);
        self.walk_containing(self.root, 0, b, &mut scratch, &mut |bx| {
            out.push(*bx);
            false
        });
    }

    /// Build a **shard** of this store: every stored box that intersects
    /// `target` is inserted into `out` (which is cleared first). A box
    /// intersects a dyadic target iff on every dimension one component is
    /// a prefix of the other, so the walk follows the target's bits while
    /// they last and then takes whole subtrees. Boxes are copied verbatim
    /// (not clipped): a shard seeded this way answers every containment
    /// probe for sub-boxes of `target` exactly as the full store would.
    ///
    /// This is the donation seam of the parallel descent: a worker that
    /// hands a pending half-box to a thief extracts the slice of its own
    /// knowledge that can matter inside that half.
    pub fn extract_intersecting_into(&self, target: &DyadicBox, out: &mut BoxTree) {
        debug_assert_eq!(target.n(), self.n);
        assert_eq!(out.n, self.n, "shard dimensionality mismatch");
        out.clear();
        let mut scratch = DyadicBox::universe(self.n);
        self.walk_intersecting(
            self.root,
            0,
            target,
            DyadicInterval::lambda(),
            &mut scratch,
            &mut |b| {
                out.insert(b);
            },
        );
    }

    /// DFS over stored boxes intersecting `target` (prefix-comparable on
    /// every dimension).
    fn walk_intersecting(
        &self,
        node: u32,
        dim: usize,
        target: &DyadicBox,
        prefix: DyadicInterval,
        scratch: &mut DyadicBox,
        visit: &mut impl FnMut(&DyadicBox),
    ) {
        let nd = self.node(node);
        // Any box whose component ends at `prefix` is prefix-comparable
        // with the target here by construction of the walk.
        if dim + 1 == self.n {
            if nd.lam() {
                scratch.set(dim, prefix);
                visit(scratch);
            }
        } else if nd.next() != NONE {
            scratch.set(dim, prefix);
            self.walk_intersecting(
                nd.next(),
                dim + 1,
                target,
                DyadicInterval::lambda(),
                scratch,
                visit,
            );
        }
        let tv = target.get(dim);
        if prefix.len() < tv.len() {
            // Still on the target's spine: only its next bit stays
            // comparable.
            let k = prefix.len();
            let bit = ((tv.bits() >> (tv.len() - 1 - k)) & 1) as u8;
            let child = nd.children[bit as usize];
            if child != NONE {
                self.walk_intersecting(child, dim, target, prefix.child(bit), scratch, visit);
            }
        } else {
            // Past the target's component: every extension lies inside it.
            for bit in 0..2u8 {
                let child = nd.children[bit as usize];
                if child != NONE {
                    self.walk_intersecting(child, dim, target, prefix.child(bit), scratch, visit);
                }
            }
        }
    }

    /// DFS over stored boxes whose every component is a prefix of `b`'s.
    /// `visit` returns `true` to stop the walk early.
    fn walk_containing(
        &self,
        root: u32,
        dim: usize,
        b: &DyadicBox,
        scratch: &mut DyadicBox,
        visit: &mut dyn FnMut(&DyadicBox) -> bool,
    ) -> bool {
        let iv = b.get(dim);
        let mut node = root;
        // Visit every prefix of `iv` from λ down to `iv` itself.
        for k in 0..=iv.len() {
            let prefix = iv.truncate(k);
            let nd = self.node(node);
            if dim + 1 == self.n {
                if nd.lam() {
                    scratch.set(dim, prefix);
                    if visit(scratch) {
                        return true;
                    }
                }
            } else if nd.next() != NONE {
                scratch.set(dim, prefix);
                if self.walk_containing(nd.next(), dim + 1, b, scratch, visit) {
                    return true;
                }
            }
            if k == iv.len() {
                break;
            }
            let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
            let child = nd.children[bit];
            if child == NONE {
                break;
            }
            node = child;
        }
        false
    }

    /// Enumerate all stored boxes (in deterministic DFS order).
    pub fn iter_boxes(&self) -> Vec<DyadicBox> {
        let mut out = Vec::with_capacity(self.len);
        let mut scratch = DyadicBox::universe(self.n);
        self.walk_all(
            self.root,
            0,
            DyadicInterval::lambda(),
            &mut scratch,
            &mut out,
        );
        out
    }

    fn walk_all(
        &self,
        node: u32,
        dim: usize,
        prefix: DyadicInterval,
        scratch: &mut DyadicBox,
        out: &mut Vec<DyadicBox>,
    ) {
        let nd = self.node(node);
        if dim + 1 == self.n {
            if nd.lam() {
                scratch.set(dim, prefix);
                out.push(*scratch);
            }
        } else if nd.next() != NONE {
            scratch.set(dim, prefix);
            self.walk_all(nd.next(), dim + 1, DyadicInterval::lambda(), scratch, out);
        }
        for bit in 0..2u8 {
            let child = nd.children[bit as usize];
            if child != NONE {
                self.walk_all(child, dim, prefix.child(bit), scratch, out);
            }
        }
    }
}

impl Extend<DyadicBox> for BoxTree {
    fn extend<T: IntoIterator<Item = DyadicBox>>(&mut self, iter: T) {
        for b in iter {
            self.insert(&b);
        }
    }
}

impl FromIterator<DyadicBox> for BoxTree {
    /// Builds a store from boxes; panics on an empty iterator (the
    /// dimensionality cannot be inferred).
    fn from_iter<T: IntoIterator<Item = DyadicBox>>(iter: T) -> Self {
        let mut it = iter.into_iter().peekable();
        let first = it
            .peek()
            .expect("cannot infer dimensionality from an empty iterator");
        let mut tree = BoxTree::new(first.n());
        tree.extend(it);
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FrontierStack;
    use dyadic::Space;

    fn b(s: &str) -> DyadicBox {
        DyadicBox::parse(s).unwrap()
    }

    #[test]
    fn insert_and_exact_lookup() {
        let mut t = BoxTree::new(2);
        assert!(t.insert(&b("0,λ")));
        assert!(t.insert(&b("10,1")));
        assert!(t.insert(&b("10,0")));
        assert!(t.insert(&b("10,001")));
        assert!(!t.insert(&b("10,1")), "duplicate insert must report false");
        assert_eq!(t.len(), 4);
        assert!(t.contains_exact(&b("10,001")));
        assert!(!t.contains_exact(&b("10,00")));
        assert!(!t.contains_exact(&b("λ,λ")));
    }

    #[test]
    fn figure_16_store() {
        // The boxes of Figure 16b: ⟨0,λ⟩, ⟨10,1⟩, ⟨10,0⟩, ⟨10,001⟩.
        let t: BoxTree = [b("0,λ"), b("10,1"), b("10,0"), b("10,001")]
            .into_iter()
            .collect();
        let mut all = t.iter_boxes();
        all.sort();
        assert_eq!(all, vec![b("0,λ"), b("10,0"), b("10,001"), b("10,1")]);
    }

    #[test]
    fn find_containing_prefers_any_witness() {
        let mut t = BoxTree::new(2);
        t.insert(&b("0,λ"));
        assert_eq!(t.find_containing(&b("01,11")), Some(b("0,λ")));
        assert_eq!(t.find_containing(&b("1,λ")), None);
        assert!(t.covers(&b("00,0")));
        assert!(!t.covers(&b("λ,λ")));
    }

    #[test]
    fn lambda_box_contains_everything() {
        let mut t = BoxTree::new(3);
        t.insert(&DyadicBox::universe(3));
        assert!(t.covers(&b("101,0,11")));
        assert!(t.covers(&DyadicBox::universe(3)));
    }

    #[test]
    fn all_containing_collects_every_ancestor() {
        let mut t = BoxTree::new(2);
        // Chain of nested boxes all containing ⟨00,00⟩.
        for s in ["λ,λ", "0,λ", "00,λ", "00,0", "00,00", "1,λ", "00,1"] {
            t.insert(&b(s));
        }
        let mut hits = Vec::new();
        t.all_containing_into(&b("00,00"), &mut hits);
        hits.sort();
        assert_eq!(
            hits,
            vec![b("λ,λ"), b("0,λ"), b("00,λ"), b("00,0"), b("00,00")]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn store_agrees_with_linear_scan_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let space = Space::uniform(3, 3);
        let rand_box = |rng: &mut rand::rngs::StdRng| {
            let mut bx = DyadicBox::universe(3);
            for i in 0..3 {
                let len = rng.gen_range(0..=3u8);
                let bits = rng.gen_range(0..(1u64 << len));
                bx.set(i, DyadicInterval::from_bits(bits, len));
            }
            bx
        };
        let mut got = Vec::new();
        for _ in 0..30 {
            let stored: Vec<DyadicBox> = (0..rng.gen_range(1..40))
                .map(|_| rand_box(&mut rng))
                .collect();
            let tree: BoxTree = stored.iter().copied().collect();
            for _ in 0..50 {
                let probe = rand_box(&mut rng);
                let expect: Vec<DyadicBox> = {
                    let mut v: Vec<DyadicBox> = stored
                        .iter()
                        .filter(|a| a.contains(&probe))
                        .copied()
                        .collect();
                    v.sort();
                    v.dedup();
                    v
                };
                tree.all_containing_into(&probe, &mut got);
                got.sort();
                got.dedup();
                assert_eq!(got, expect, "probe {probe}");
                assert_eq!(tree.covers(&probe), !expect.is_empty());
            }
        }
        let _ = space;
    }

    #[test]
    fn clear_resets() {
        let mut t = BoxTree::new(2);
        t.insert(&b("0,λ"));
        t.clear();
        assert!(t.is_empty());
        assert!(!t.covers(&b("00,0")));
        t.insert(&b("1,λ"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn extract_intersecting_builds_an_exact_shard() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let rand_iv = |rng: &mut rand::rngs::StdRng, max: u8| {
            let len = rng.gen_range(0..=max);
            DyadicInterval::from_bits(rng.gen_range(0..(1u64 << len)), len)
        };
        for _ in 0..40 {
            let stored: Vec<DyadicBox> = (0..rng.gen_range(1..40))
                .map(|_| {
                    let mut b = DyadicBox::universe(3);
                    for i in 0..3 {
                        b.set(i, rand_iv(&mut rng, 3));
                    }
                    b
                })
                .collect();
            let tree: BoxTree = stored.iter().copied().collect();
            let mut target = DyadicBox::universe(3);
            for i in 0..3 {
                target.set(i, rand_iv(&mut rng, 3));
            }
            let mut shard = BoxTree::new(3);
            tree.extract_intersecting_into(&target, &mut shard);
            let mut got = shard.iter_boxes();
            got.sort();
            let mut expect: Vec<DyadicBox> = stored
                .iter()
                .filter(|b| b.intersects(&target))
                .copied()
                .collect();
            expect.sort();
            expect.dedup();
            assert_eq!(got, expect, "target {target}");
        }
    }

    #[test]
    fn saved_frontier_repair_matches_full_walk() {
        // Build a store, probe a target (miss), save the frontier, insert
        // a few more boxes, then probe the target's children through the
        // saved frontier: the repaired answers must be bit-identical to
        // fresh full walks, whichever candidate (old frontier or logged
        // insert) wins.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let rand_box = |rng: &mut rand::rngs::StdRng, max_dim_len: u8| {
            let mut b = DyadicBox::universe(3);
            for i in 0..3 {
                let cap = if i == 0 { max_dim_len } else { 3 };
                let len = rng.gen_range(0..=cap);
                b.set(
                    i,
                    DyadicInterval::from_bits(rng.gen_range(0..(1u64 << len)), len),
                );
            }
            b
        };
        for trial in 0..200 {
            let mut tree = BoxTree::new(3);
            for _ in 0..rng.gen_range(0..15) {
                tree.insert(&rand_box(&mut rng, 3));
            }
            // The probed parent: thick on dim 0 (λ after is not required
            // by the API, but mirrors the engine's frame shape).
            let plen = rng.gen_range(0..3u8);
            let parent = DyadicBox::universe(3).with(
                0,
                DyadicInterval::from_bits(rng.gen_range(0..(1u64 << plen)), plen),
            );
            let mut probe = DescentProbe::new();
            if tree
                .find_containing_tracked(&parent, 0, &mut probe)
                .is_some()
            {
                continue; // covered parents save no frontier
            }
            let mut frontiers = FrontierStack::new();
            frontiers.push_saved(&probe);
            // Mutate the store.
            for _ in 0..rng.gen_range(0..8) {
                tree.insert(&rand_box(&mut rng, 3));
            }
            for bit in 0..2u8 {
                let child = parent.with(0, parent.get(0).child(bit));
                let mut restored = DescentProbe::new();
                assert!(frontiers.restore_top(&parent, &mut restored));
                let got = tree.find_containing_tracked(&child, 0, &mut restored);
                assert_eq!(
                    got,
                    tree.find_containing(&child),
                    "trial {trial} bit {bit}: repaired probe diverges from full walk"
                );
            }
            frontiers.pop();
            assert!(frontiers.is_empty());
        }
    }

    /// Every stored-set view of `t` agrees with the box list `set`.
    fn assert_holds(t: &BoxTree, set: &[DyadicBox]) {
        let mut want = set.to_vec();
        want.sort();
        want.dedup();
        let mut got = t.iter_boxes();
        got.sort();
        assert_eq!(got, want, "stored set");
        assert_eq!(t.len(), want.len());
        for bx in &want {
            assert!(t.contains_exact(bx), "{bx} stored");
            assert!(t.covers(bx), "{bx} covered");
        }
    }

    #[test]
    fn lambda_tail_ends_take_no_node() {
        // One box per (n, level of its last non-λ component): the store
        // holds a node for every position before the λ-tail starts and
        // none from there on. The root always stays a node.
        for n in 1..=3usize {
            for t0 in 0..n {
                let mut bx = DyadicBox::universe(n);
                for i in 0..t0 {
                    bx.set(i, DyadicInterval::from_bits((i % 2) as u64, (i % 2) as u8));
                }
                bx.set(t0, DyadicInterval::from_bits(0b01, 2));
                let before_tail: usize =
                    (0..t0).map(|i| bx.get(i).len() as usize + 1).sum::<usize>() + 2;
                let mut t = BoxTree::new(n);
                assert!(t.insert(&bx));
                assert_eq!(t.node_count(), before_tail, "n={n} t0={t0} {bx}");
                assert_holds(&t, &[bx]);
                assert_eq!(t.find_containing(&bx), Some(bx));
                let mut inner = bx;
                inner.set(n - 1, inner.get(n - 1).child(1));
                assert_eq!(t.find_containing(&inner), Some(bx), "n={n} t0={t0}");
                assert_eq!(t.mem_stats().nodes, before_tail as u64);
            }
            // The universe box: its tail starts at the root.
            let mut t = BoxTree::new(n);
            assert!(t.insert(&DyadicBox::universe(n)));
            assert_eq!(t.node_count(), 1, "n={n} universe");
            assert_holds(&t, &[DyadicBox::universe(n)]);
            assert!(!t.insert(&DyadicBox::universe(n)));
        }
    }

    #[test]
    fn duplicate_leaf_insert_reports_false() {
        let mut t = BoxTree::new(2);
        assert!(t.insert(&b("0,λ")));
        let nodes = t.node_count();
        // From the cursor's resume point…
        assert!(!t.insert(&b("0,λ")));
        // …and on a fresh walk from the root.
        assert!(t.insert(&b("1,1")));
        assert!(!t.insert(&b("0,λ")));
        assert!(!t.insert(&b("1,1")));
        // ⟨1,1⟩ adds "1" and its level-1 root; its end is a leaf.
        assert_eq!(t.node_count(), nodes + 2);
        assert_holds(&t, &[b("0,λ"), b("1,1")]);
    }

    #[test]
    fn leaves_become_nodes_only_when_passed_through() {
        let cases: [&[&str]; 3] = [
            // The leaf hangs off the cursor's resume point (⟨00,λ⟩'s
            // divergence node "0").
            &["01,λ", "00,λ", "011,λ", "01,1"],
            // The leaf is reached on a walk diverging at the root.
            &["0,λ", "1,λ", "01,1", "0,0"],
            // A leaf whose parent is a leaf: ⟨0,λ⟩'s tail is "0" then the
            // level-1 root, and ⟨0,1⟩ must pass through both.
            &["0,λ", "0,1", "0,λ", "0,10"],
        ];
        for boxes in cases {
            let mut t = BoxTree::new(2);
            let mut set = Vec::new();
            for s in boxes {
                let bx = b(s);
                assert_eq!(t.insert(&bx), !set.contains(&bx), "{boxes:?}: {s}");
                set.push(bx);
                assert_holds(&t, &set);
                for probe in ["λ,λ", "0,λ", "01,1", "011,11", "0,10", "00,0", "1,0"] {
                    let probe = b(probe);
                    let want = set
                        .iter()
                        .filter(|c| c.contains(&probe))
                        .min_by_key(|c| lens_key_of_box(c, 1))
                        .copied();
                    assert_eq!(t.find_containing(&probe), want, "{boxes:?} {probe}");
                }
            }
        }
        // The leaf-under-leaf case in numbers: ⟨0,λ⟩ is the root plus a
        // leaf; ⟨0,1⟩ turns "0" and the level-1 root into nodes and ends
        // in a leaf of its own.
        let mut t = BoxTree::new(2);
        t.insert(&b("0,λ"));
        assert_eq!(t.node_count(), 1);
        t.insert(&b("0,1"));
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.find_containing(&b("0,11")), Some(b("0,λ")));
    }

    #[test]
    fn tracked_probes_survive_leaf_promotion() {
        // Directed: a frontier saved at the level-1 root under "1", then
        // an insert that turns ⟨1,0⟩'s leaf (a child of a frontier entry)
        // into a node on its way to ⟨1,01⟩.
        let mut t = BoxTree::new(2);
        t.insert(&b("1,0"));
        let parent = b("1,λ");
        let mut probe = DescentProbe::new();
        assert_eq!(t.find_containing_tracked(&parent, 1, &mut probe), None);
        let mut frontiers = FrontierStack::new();
        frontiers.push_saved(&probe);
        t.insert(&b("1,01"));
        for bit in 0..2u8 {
            let child = parent.with(1, parent.get(1).child(bit));
            let mut restored = DescentProbe::new();
            assert!(frontiers.restore_top(&parent, &mut restored));
            assert_eq!(
                t.find_containing_tracked(&child, 1, &mut restored),
                t.find_containing(&child),
                "bit {bit}"
            );
        }
        assert_eq!(t.find_containing(&b("1,0")), Some(b("1,0")));

        // Randomized: λ-heavy boxes, so most inserts end in leaves and
        // many later ones promote them, racing tracked chains and
        // saved-frontier restores.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let rand_box = |rng: &mut rand::rngs::StdRng| {
            let mut bx = DyadicBox::universe(3);
            let t0 = rng.gen_range(0..3);
            for i in 0..=t0 {
                let len = rng.gen_range(0..=3u8);
                bx.set(
                    i,
                    DyadicInterval::from_bits(rng.gen_range(0..(1u64 << len)), len),
                );
            }
            bx
        };
        for trial in 0..300 {
            let mut t = BoxTree::new(3);
            for _ in 0..rng.gen_range(0..12) {
                t.insert(&rand_box(&mut rng));
            }
            let dim = rng.gen_range(0..3);
            let mut target = rand_box(&mut rng);
            for i in dim + 1..3 {
                target.set(i, DyadicInterval::lambda());
            }
            let mut probe = DescentProbe::new();
            let mut frontiers = FrontierStack::new();
            for k in 0..=target.get(dim).len() {
                let q = target.with(dim, target.get(dim).truncate(k));
                let got = t.find_containing_tracked(&q, dim, &mut probe);
                assert_eq!(got, t.find_containing(&q), "trial {trial} k={k}");
                if got.is_some() {
                    break;
                }
                frontiers.clear();
                frontiers.push_saved(&probe);
                for _ in 0..rng.gen_range(0..4) {
                    t.insert(&rand_box(&mut rng));
                }
                // The sibling through the restored frontier.
                if k < target.get(dim).len() {
                    let sib_bit =
                        1 - ((target.get(dim).bits() >> (target.get(dim).len() - 1 - k)) & 1);
                    let sib = q.with(dim, q.get(dim).child(sib_bit as u8));
                    let mut restored = DescentProbe::new();
                    assert!(frontiers.restore_top(&q, &mut restored));
                    assert_eq!(
                        t.find_containing_tracked(&sib, dim, &mut restored),
                        t.find_containing(&sib),
                        "trial {trial} k={k}: restored sibling"
                    );
                }
            }
        }
    }

    #[test]
    fn figure_16_store_node_count() {
        // root, "1", "10", the level-1 root under "10", and ⟨10,0⟩'s end
        // plus "00" (promoted by ⟨10,001⟩); ⟨0,λ⟩, ⟨10,1⟩ and ⟨10,001⟩
        // end in leaves. With one node per position it was 10.
        let t: BoxTree = [b("0,λ"), b("10,1"), b("10,0"), b("10,001")]
            .into_iter()
            .collect();
        assert_eq!(t.node_count(), 6);
    }

    #[test]
    fn fresh_box_ending_at_a_real_node_is_new() {
        // ⟨10,0⟩ ends at the real node "0" under ⟨10,001⟩'s level-1 root.
        // Its λ-tail bit is also its terminal mark, so `insert` must read
        // it before setting it.
        let mut t = BoxTree::new(2);
        assert!(t.insert(&b("10,001")));
        assert!(t.insert(&b("10,0")));
        assert!(!t.insert(&b("10,0")));
        assert_holds(&t, &[b("10,001"), b("10,0")]);
    }

    #[test]
    fn next_write_keeps_the_lambda_tail_bit() {
        // ⟨1,0⟩ promotes ⟨1,λ⟩'s leaf "1" (λ-tail bit set) and then
        // writes its `next` slot; the bit must survive that write.
        let mut t = BoxTree::new(2);
        t.insert(&b("1,λ"));
        t.insert(&b("1,0"));
        let mut probe = DescentProbe::new();
        assert_eq!(t.find_containing_tracked(&b("λ,λ"), 0, &mut probe), None);
        let got = t.find_containing_tracked(&b("1,λ"), 0, &mut probe);
        assert_eq!(probe.advances, 1, "the probe must advance, not re-walk");
        assert_eq!(got, Some(b("1,λ")));
        assert_eq!(got, t.find_containing(&b("1,λ")));
    }

    #[test]
    fn one_dimensional_store() {
        let mut t = BoxTree::new(1);
        t.insert(&b("01"));
        t.insert(&b("1"));
        assert!(t.covers(&b("011")));
        assert!(t.covers(&b("11")));
        assert!(!t.covers(&b("00")));
        assert!(!t.covers(&b("0")));
        assert_eq!(t.iter_boxes().len(), 2);
    }
}
