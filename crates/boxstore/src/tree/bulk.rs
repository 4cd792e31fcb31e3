//! The bulk preload: a sorted trie's gap boxes written into a
//! [`BoxTree`] one value list at a time (paper §3.2 and Appendix C.1).
//!
//! The maximal dyadic pieces of a sorted list's gaps are exactly the
//! empty children of the binary trie over its values. So a trie index's
//! share of `B` can be written list by list: value prefixes become
//! nodes, and every empty child becomes a λ-tail gap in its parent's
//! slot. No gap box is built, walked from a resume point or logged.
//!
//! The writer visits positions in the order `TrieIndex::for_each_gap_box`
//! emits the boxes that pass through them, and applies the per-box
//! insert's step rules, so the arena comes out byte-identical to
//! streaming the same boxes through [`BoxTree::insert`].

use super::{BoxTree, LAM, LEAF, NEXT, NONE};

/// A read-only view of a sorted trie in CSR form: what
/// [`BoxTree::bulk_load_trie`] reads.
///
/// Level `j` holds the distinct values of one column, grouped by parent
/// entry and sorted within each group. The children of level-`j` entry
/// `i` are `values(j + 1)[starts(j)[i]..starts(j)[i + 1]]`; every entry
/// above the last level has at least one child.
pub trait SortedTrie {
    /// Number of levels.
    fn levels(&self) -> usize;
    /// Bit width of level `level`'s values.
    fn width(&self, level: usize) -> u8;
    /// Level `level`'s values, every parent's group sorted.
    fn values(&self, level: usize) -> &[u64];
    /// CSR offsets of level `level + 1`'s groups (`level` below the
    /// last level).
    fn starts(&self, level: usize) -> &[u32];
}

/// One bulk load in progress. It allocates nothing on the heap, so no
/// allocation of its own interleaves with the arena's growth.
struct Writer<'a, T: ?Sized> {
    tree: &'a mut BoxTree,
    trie: &'a T,
    /// Store dimension of each trie level (strictly increasing).
    dims: &'a [usize],
    novel: u64,
}

impl BoxTree {
    /// Write every gap box of a sorted trie (paper §3.2): trie level `j`
    /// lies on store dimension `dims[j]`, and every other dimension is
    /// λ. Returns how many boxes were new.
    ///
    /// The result is the store, node for node and byte for byte, that
    /// inserting the trie's gap stream box by box builds (the order of
    /// `relation::TrieIndex::for_each_gap_box`), with `len` and
    /// [`BoxTree::epoch`] advanced as those inserts would. Frontiers
    /// saved before the load are stale afterwards, as after a
    /// [`BoxTree::clear`]: the load writes no insert-log entries.
    ///
    /// Each list is written in two phases:
    /// 1. split its values bit by bit: an empty half is a gap box ending
    ///    in that slot, and a half that is not full is a node on the way
    ///    to deeper gaps;
    /// 2. in value order, walk each value with a gap below it down to its
    ///    full-depth node, cross the dimensions the trie skips through
    ///    `next` links, and load the value's child list there.
    ///
    /// # Panics
    /// If `dims` does not map the trie's levels to strictly increasing
    /// dimensions of this store.
    pub fn bulk_load_trie<T: SortedTrie + ?Sized>(&mut self, trie: &T, dims: &[usize]) -> u64 {
        let k = trie.levels();
        assert!(
            k >= 1 && dims.len() == k,
            "bulk load: one dimension per trie level"
        );
        assert!(
            dims.windows(2).all(|p| p[0] < p[1]) && dims[k - 1] < self.n,
            "bulk load: trie levels must map to strictly increasing store dimensions"
        );
        let mut w = Writer {
            tree: self,
            trie,
            dims,
            novel: 0,
        };
        let top = trie.values(0);
        if top.is_empty() {
            // An empty relation's one gap box is the universe.
            let root = w.tree.root;
            w.end_chain(root, 0);
        } else if w.list_has_gap(0, 0, top.len()) {
            let mut r = w.tree.root;
            for lv in 1..=dims[0] {
                r = w.pass(r, NEXT, lv);
            }
            w.load_list(0, 0, top.len(), r);
        }
        let novel = w.novel;
        self.len += novel as usize;
        self.epoch += novel;
        self.log.note_bulk(novel);
        self.cursor.invalidate(self.root);
        novel
    }
}

/// Whether the `len`-value list of a `width`-bit level is full.
#[inline]
fn full(len: usize, width: u8) -> bool {
    len as u64 == 1u64 << width
}

impl<T: SortedTrie + ?Sized> Writer<'_, T> {
    /// Whether a gap box lies at or below the level-`j` list
    /// `values(j)[lo..hi]`: it is not full, or some list below one of
    /// its entries is not full.
    fn list_has_gap(&self, j: usize, lo: usize, hi: usize) -> bool {
        !full(hi - lo, self.trie.width(j))
            || (j + 1 < self.dims.len() && (lo..hi).any(|i| self.gap_below(j, i)))
    }

    /// Whether a gap box lies below level-`j` entry `i`.
    fn gap_below(&self, j: usize, i: usize) -> bool {
        let starts = self.trie.starts(j);
        self.list_has_gap(j + 1, starts[i] as usize, starts[i + 1] as usize)
    }

    /// Load the level-`j` list `values(j)[lo..hi]` rooted at real node
    /// `root`, which has a gap at or below it.
    fn load_list(&mut self, j: usize, lo: usize, hi: usize, root: u32) {
        let trie = self.trie;
        let vals = &trie.values(j)[lo..hi];
        let width = trie.width(j);
        let dim = self.dims[j];
        // Phase 1: this list's own gaps, left to right.
        if !full(vals.len(), width) {
            self.split(root, vals, width, dim);
        }
        if j + 1 == self.dims.len() {
            return;
        }
        // Phase 2: each value with a gap below, in value order. Each walk
        // resumes where it leaves the previous value's path: `path[t]` is
        // the node `t` bits down the last walked value (widths < 64).
        let mut path = [root; 64];
        let mut prev = None;
        let next_dim = self.dims[j + 1];
        for (i, &v) in (lo..hi).zip(vals) {
            if !self.gap_below(j, i) {
                continue;
            }
            let keep = prev.map_or(0, |p: u64| {
                // Bits shared with the previous walked value.
                ((p ^ v).leading_zeros() + u32::from(width) - 64) as usize
            });
            let mut node = path[keep];
            for t in keep..usize::from(width) {
                let bit = ((v >> (usize::from(width) - 1 - t)) & 1) as usize;
                node = self.pass(node, bit, dim);
                path[t + 1] = node;
            }
            prev = Some(v);
            for lv in dim + 1..=next_dim {
                node = self.pass(node, NEXT, lv);
            }
            let starts = trie.starts(j);
            self.load_list(j + 1, starts[i] as usize, starts[i + 1] as usize, node);
        }
    }

    /// Phase 1 below real node `node` on dimension `dim`: `vals` (not
    /// empty, not full) share every bit above the low `rem`.
    fn split(&mut self, node: u32, vals: &[u64], rem: u8, dim: usize) {
        if let [v] = *vals {
            self.chain(node, v, rem, dim);
            return;
        }
        let b = rem - 1;
        let mid = vals.partition_point(|&v| (v >> b) & 1 == 0);
        for (bit, half) in [(0, &vals[..mid]), (1, &vals[mid..])] {
            if half.is_empty() {
                self.end_gap(node, bit, dim);
            } else if !full(half.len(), b) {
                let child = self.pass(node, bit, dim);
                self.split(child, half, b, dim);
            }
        }
    }

    /// Phase 1 for a single value `v` below real node `node`: a gap beside
    /// every bit of its path, and a node on every bit but the last.
    fn chain(&mut self, mut node: u32, v: u64, mut rem: u8, dim: usize) {
        // Follow the store until the walk allocates a node…
        while rem > 0 {
            rem -= 1;
            let bit = ((v >> rem) & 1) as usize;
            self.end_gap(node, 1 - bit, dim);
            if rem == 0 {
                return;
            }
            let fresh = self.tree.nodes[node as usize].children[bit] == NONE;
            node = self.pass(node, bit, dim);
            if fresh {
                break;
            }
        }
        // …below which every slot is still `NONE`: write without reading.
        while rem > 0 {
            rem -= 1;
            let bit = ((v >> rem) & 1) as usize;
            self.tree.nodes[node as usize].children[1 - bit] = LEAF;
            self.novel += 1;
            if rem > 0 {
                let id = self.tree.alloc();
                self.tree.nodes[node as usize].children[bit] = id;
                node = id;
            }
        }
    }

    /// Pass through slot `slot` of real node `parent` to a position on
    /// dimension `level`: [`BoxTree::step`] off the λ-tail.
    #[inline]
    fn pass(&mut self, parent: u32, slot: usize, level: usize) -> u32 {
        match self.tree.link(parent, slot) {
            link @ (NONE | LEAF) => self.tree.materialize(parent, slot, level, link),
            real => real,
        }
    }

    /// A gap box ends in slot `slot` of real node `parent` on dimension
    /// `dim`, λ on every later dimension.
    #[inline]
    fn end_gap(&mut self, parent: u32, slot: usize, dim: usize) {
        match self.tree.nodes[parent as usize].children[slot] {
            NONE => {
                self.tree.nodes[parent as usize].children[slot] = LEAF;
                self.novel += 1;
            }
            LEAF => {} // the same box, stored as a leaf
            x => self.end_chain(x, dim),
        }
    }

    /// A gap box ends at real node `x` on dimension `dim`: walk its λ-tail
    /// chain as [`BoxTree::insert`] does, setting the λ-tail bit on every
    /// real node of it. The box is new unless the chain ends in a leaf or
    /// at a last-level node already marked.
    fn end_chain(&mut self, mut x: u32, dim: usize) {
        let n = self.tree.n;
        for lv in dim..n {
            let nd = &mut self.tree.nodes[x as usize];
            let (next, marked) = (nd.next(), nd.lam());
            nd.link |= LAM;
            if lv + 1 == n {
                self.novel += u64::from(!marked);
                return;
            }
            match next {
                NONE => {
                    self.tree.set_link(x, NEXT, LEAF);
                    self.novel += 1;
                    return;
                }
                LEAF => return,
                y => x = y,
            }
        }
    }
}
