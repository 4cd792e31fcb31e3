//! The oracle abstraction over the input box set `B` (paper §3.4).
//!
//! Tetris never materializes `B` up front in its certificate-based modes;
//! it only asks, for a probe tuple, *which maximal gap boxes contain it*
//! (Algorithm 2, line 4). Database indexes answer that in `Õ(1)` time
//! (Appendix B.3). [`BoxOracle`] captures exactly that interface, and
//! [`SetOracle`] implements it for an explicit box set (raw BCP / Klee's
//! measure instances).

use crate::BoxTree;
use dyadic::{DyadicBox, Space};

/// Oracle access to a set of dyadic boxes `B` over a fixed [`Space`].
///
/// `Tetris-Reloaded` asks it one probe at a time
/// ([`BoxOracle::boxes_containing_into`]); `Tetris-Preloaded` copies all
/// of `B` into its knowledge base once ([`BoxOracle::preload_into`]) and
/// then never probes it.
///
/// Implementations must satisfy, for every unit box `p`:
/// `boxes_containing_into(p, out)` leaves in `out` boxes of `B` that
/// contain `p`, and a **non-empty** set whenever *some* box of `B`
/// contains `p`. (Returning all maximal such boxes, as indexes naturally
/// do, is what the paper's complexity analysis assumes.)
///
/// Oracles are shared by reference across worker threads under the
/// parallel skeleton descent, so the trait requires [`Sync`]: probe
/// answers must be computable through `&self` with no un-synchronized
/// interior mutability (every oracle in this workspace is a read-only
/// view over indexes built up front, so this costs nothing).
pub trait BoxOracle: Sync {
    /// The ambient space of the instance (dimensions in SAO order).
    fn space(&self) -> Space;

    /// All (maximal) boxes of `B` containing the given unit box, written
    /// into a caller-owned buffer (cleared first): the engine probes once
    /// per uncovered point and reuses one buffer across probes. An empty
    /// result means the point is an output tuple of the BCP.
    fn boxes_containing_into(&self, point: &DyadicBox, out: &mut Vec<DyadicBox>);

    /// The box a restarting descent stores for the output at the unit box
    /// `unit`, so that later descents find the output covered. Defaults
    /// to `unit` itself. An oracle whose space maps several unit boxes to
    /// one tuple returns all of them as one box, so that the tuple is
    /// reported once (the load-balanced lift stores a tuple's class).
    fn output_box(&self, unit: &DyadicBox) -> DyadicBox {
        *unit
    }

    /// Enumerate all of `B`, if supported — used by `Tetris-Preloaded`.
    fn enumerate(&self) -> Option<Vec<DyadicBox>> {
        None
    }

    /// Stream all of `B` to a callback, if enumeration is supported;
    /// returns `false` when it is not. Unlike [`BoxOracle::enumerate`],
    /// implementations may repeat a box (`Tetris-Preloaded` feeds a
    /// deduplicating store, so materializing and sorting the whole set
    /// just to dedup it would dominate the preload).
    fn for_each_box(&self, f: &mut dyn FnMut(&DyadicBox)) -> bool {
        match self.enumerate() {
            Some(all) => {
                for b in &all {
                    f(b);
                }
                true
            }
            None => false,
        }
    }

    /// Load all of `B` into a knowledge base (`Tetris-Preloaded`);
    /// returns how many boxes were new, or `None` when `B` cannot be
    /// enumerated.
    ///
    /// The default streams [`BoxOracle::for_each_box`] through
    /// [`BoxTree::insert`]. An oracle that can write whole index
    /// structures at once overrides it with [`BoxTree::bulk_load_trie`],
    /// which must leave the store exactly as that stream would.
    fn preload_into(&self, kb: &mut BoxTree) -> Option<u64> {
        let mut novel = 0u64;
        self.for_each_box(&mut |b| {
            if kb.insert(b) {
                novel += 1;
            }
        })
        .then_some(novel)
    }
}

/// A [`BoxOracle`] over an explicit, materialized box set.
///
/// Used for raw BCP instances (e.g. the lower-bound constructions of
/// Section 5 and Klee's-measure inputs). Queries go through a [`BoxTree`].
pub struct SetOracle {
    space: Space,
    tree: BoxTree,
    boxes: Vec<DyadicBox>,
}

impl SetOracle {
    /// Build from a list of boxes. Exact duplicates are kept once.
    ///
    /// # Panics
    /// If a box's dimensionality does not match the space.
    pub fn new(space: Space, boxes: impl IntoIterator<Item = DyadicBox>) -> Self {
        let mut tree = BoxTree::new(space.n());
        let mut kept = Vec::new();
        for b in boxes {
            assert_eq!(b.n(), space.n(), "box dimensionality mismatch");
            if tree.insert(&b) {
                kept.push(b);
            }
        }
        SetOracle {
            space,
            tree,
            boxes: kept,
        }
    }

    /// The stored boxes.
    pub fn boxes(&self) -> &[DyadicBox] {
        &self.boxes
    }
}

impl BoxOracle for SetOracle {
    fn space(&self) -> Space {
        self.space
    }

    fn boxes_containing_into(&self, point: &DyadicBox, out: &mut Vec<DyadicBox>) {
        self.tree.all_containing_into(point, out);
    }

    fn enumerate(&self) -> Option<Vec<DyadicBox>> {
        Some(self.boxes.clone())
    }

    fn for_each_box(&self, f: &mut dyn FnMut(&DyadicBox)) -> bool {
        for b in &self.boxes {
            f(b);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> DyadicBox {
        DyadicBox::parse(s).unwrap()
    }

    #[test]
    fn set_oracle_answers_point_probes() {
        let space = Space::uniform(2, 2);
        let o = SetOracle::new(space, vec![b("λ,0"), b("00,λ"), b("λ,11"), b("10,1")]);
        let mut hits = Vec::new();
        // Figure 10: ⟨01,10⟩ is uncovered.
        o.boxes_containing_into(&b("01,10"), &mut hits);
        assert!(hits.is_empty());
        // ⟨01,00⟩ is covered by ⟨λ,0⟩.
        o.boxes_containing_into(&b("01,00"), &mut hits);
        assert_eq!(hits, vec![b("λ,0")]);
        // ⟨00,00⟩ is covered by two boxes.
        o.boxes_containing_into(&b("00,00"), &mut hits);
        assert_eq!(hits.len(), 2);
        assert_eq!(o.enumerate().unwrap().len(), 4);
    }

    #[test]
    fn duplicates_dropped() {
        let space = Space::uniform(1, 2);
        let o = SetOracle::new(space, vec![b("0"), b("0"), b("1")]);
        assert_eq!(o.boxes().len(), 2);
    }
}
