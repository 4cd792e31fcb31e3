//! Dyadic boxes: `n`-tuples of dyadic intervals (paper Definition 3.3).

use crate::{DyadicInterval, Space};
use core::cmp::Ordering;
use core::fmt;

/// Maximum number of dimensions a [`DyadicBox`] can have.
///
/// The load-balancing lift maps an `n`-dimensional problem to `2n − 2`
/// dimensions, so 8 supports up to 5 original join attributes, which
/// covers every query in the paper's experiments. Boxes are `Copy` values
/// that ride through the engine's unwind, the insert ring, and the saved
/// frontiers by the tens of millions, so the capacity is deliberately the
/// smallest that fits the workloads. Box `memcpy` is linear in this
/// constant; with 8-byte intervals it fell to about 1% of profile samples
/// (DESIGN.md §8), so this is no longer where solve time goes.
pub const MAX_DIMS: usize = 8;

/// A dyadic box `b = ⟨x₁, …, xₙ⟩`: one dyadic interval per dimension.
///
/// Boxes are small `Copy` values (fixed-capacity inline storage) so the
/// Tetris recursion and the box store never allocate per box. Dimensions
/// are identified by index in **splitting-attribute-order (SAO)
/// coordinates**: the attribute↔dimension mapping is applied once when gap
/// boxes are generated, never inside the core algorithm.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DyadicBox {
    dims: [DyadicInterval; MAX_DIMS],
    n: u8,
}

impl DyadicBox {
    /// The universal box `⟨λ, …, λ⟩` over `n` dimensions.
    pub fn universe(n: usize) -> Self {
        assert!(n <= MAX_DIMS, "at most {MAX_DIMS} dimensions supported");
        DyadicBox {
            dims: [DyadicInterval::lambda(); MAX_DIMS],
            n: n as u8,
        }
    }

    /// Build a box from explicit intervals.
    pub fn from_intervals(ivs: &[DyadicInterval]) -> Self {
        let mut b = Self::universe(ivs.len());
        b.dims[..ivs.len()].copy_from_slice(ivs);
        b
    }

    /// Parse from a compact textual form: comma-separated bitstrings with
    /// `λ`, `*` or the empty string as wildcards, e.g. `"10,λ,011"`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut ivs = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() || part == "λ" || part == "*" {
                ivs.push(DyadicInterval::lambda());
            } else {
                ivs.push(DyadicInterval::parse(part)?);
            }
        }
        if ivs.len() > MAX_DIMS {
            return None;
        }
        Some(Self::from_intervals(&ivs))
    }

    /// The unit box for a point, given the space (full-width components).
    pub fn from_point(point: &[u64], space: &Space) -> Self {
        debug_assert_eq!(point.len(), space.n());
        let mut b = Self::universe(point.len());
        for (i, &v) in point.iter().enumerate() {
            b.dims[i] = DyadicInterval::point(v, space.width(i));
        }
        b
    }

    /// Number of dimensions.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The interval of dimension `i`.
    #[inline]
    pub fn get(&self, i: usize) -> DyadicInterval {
        debug_assert!(i < self.n as usize);
        self.dims[i]
    }

    /// Replace the interval of dimension `i` (returns a new box).
    #[inline]
    pub fn with(&self, i: usize, iv: DyadicInterval) -> Self {
        debug_assert!(i < self.n as usize);
        let mut b = *self;
        b.dims[i] = iv;
        b
    }

    /// Mutable access to dimension `i`.
    #[inline]
    pub fn set(&mut self, i: usize, iv: DyadicInterval) {
        debug_assert!(i < self.n as usize);
        self.dims[i] = iv;
    }

    /// Iterator over the component intervals.
    pub fn intervals(&self) -> impl Iterator<Item = DyadicInterval> + '_ {
        self.dims[..self.n as usize].iter().copied()
    }

    /// Component intervals as a slice.
    pub fn as_slice(&self) -> &[DyadicInterval] {
        &self.dims[..self.n as usize]
    }

    /// Set containment: `self ⊇ other` iff every component of `self` is a
    /// prefix of the corresponding component of `other`.
    #[inline]
    pub fn contains(&self, other: &Self) -> bool {
        debug_assert_eq!(self.n, other.n);
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a.is_prefix_of(b))
    }

    /// Whether the two boxes intersect (every pair of components comparable).
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        debug_assert_eq!(self.n, other.n);
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a.comparable(b))
    }

    /// Component-wise intersection; `None` if the boxes are disjoint.
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        debug_assert_eq!(self.n, other.n);
        let mut out = *self;
        for i in 0..self.n() {
            out.dims[i] = self.dims[i].intersect(&other.dims[i])?;
        }
        Some(out)
    }

    /// Whether the box contains the given point.
    pub fn contains_point(&self, point: &[u64], space: &Space) -> bool {
        debug_assert_eq!(point.len(), self.n());
        point
            .iter()
            .enumerate()
            .all(|(i, &v)| self.dims[i].contains_value(v, space.width(i)))
    }

    /// Whether every component has full width — i.e. the box is a tuple.
    pub fn is_unit(&self, space: &Space) -> bool {
        (0..self.n()).all(|i| self.dims[i].is_unit(space.width(i)))
    }

    /// The tuple denoted by a unit box.
    ///
    /// # Panics
    /// In debug builds if the box is not unit.
    pub fn to_point(&self, space: &Space) -> Vec<u64> {
        (0..self.n())
            .map(|i| self.dims[i].value(space.width(i)))
            .collect()
    }

    /// [`DyadicBox::to_point`] into a caller-owned buffer (cleared first),
    /// so streaming consumers can avoid one allocation per tuple.
    ///
    /// # Panics
    /// In debug builds if the box is not unit.
    pub fn write_point(&self, space: &Space, out: &mut Vec<u64>) {
        out.clear();
        out.extend((0..self.n()).map(|i| self.dims[i].value(space.width(i))));
    }

    /// The support of the box: indices of dimensions with non-`λ`
    /// components (paper Definition 3.7), as a bitmask.
    pub fn support_mask(&self) -> u32 {
        let mut m = 0u32;
        for i in 0..self.n() {
            if !self.dims[i].is_lambda() {
                m |= 1 << i;
            }
        }
        m
    }

    /// The first dimension (in SAO order) whose component is shorter than
    /// full width — the dimension `Split-First-Thick-Dimension` splits on.
    pub fn first_thick_dim(&self, space: &Space) -> Option<usize> {
        (0..self.n()).find(|&i| self.dims[i].len() < space.width(i))
    }

    /// `Split-First-Thick-Dimension(b)` from Algorithm 1: cut the box into
    /// two halves along its first thick dimension.
    ///
    /// Returns `(b1, b2, dim)`; `None` if the box is a unit box.
    pub fn split_first_thick(&self, space: &Space) -> Option<(Self, Self, usize)> {
        let dim = self.first_thick_dim(space)?;
        let x = self.dims[dim];
        Some((self.with(dim, x.child(0)), self.with(dim, x.child(1)), dim))
    }

    /// Number of points covered in the given space.
    pub fn volume(&self, space: &Space) -> u128 {
        (0..self.n()).fold(1u128, |acc, i| {
            acc.saturating_mul(self.dims[i].point_count(space.width(i)) as u128)
        })
    }

    /// Whether `self` is a **prefix box** of `other` (Definition C.2):
    /// reading all components as one concatenated string, `self` is a
    /// prefix of `other`. Equivalently: for some `l`, the first `l − 1`
    /// components are equal, component `l` of `self` is a prefix of
    /// component `l` of `other`, and the rest of `self` is all-`λ`.
    pub fn is_prefix_box_of(&self, other: &Self) -> bool {
        debug_assert_eq!(self.n, other.n);
        let mut seen_shorter = false;
        for i in 0..self.n() {
            let (a, b) = (self.dims[i], other.dims[i]);
            if seen_shorter {
                if !a.is_lambda() {
                    return false;
                }
            } else if a == b {
                continue;
            } else if a.is_prefix_of(&b) {
                seen_shorter = true;
            } else {
                return false;
            }
        }
        true
    }

    /// Project the box onto a set of dimensions (others become `λ`) —
    /// Definition E.2.
    pub fn project_mask(&self, mask: u32) -> Self {
        let mut out = *self;
        for i in 0..self.n() {
            if mask & (1 << i) == 0 {
                out.dims[i] = DyadicInterval::lambda();
            }
        }
        out
    }
}

impl fmt::Debug for DyadicBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for DyadicBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, iv) in self.intervals().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "⟩")
    }
}

impl PartialOrd for DyadicBox {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DyadicBox {
    /// Lexicographic by component (deterministic iteration order only).
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> DyadicBox {
        DyadicBox::parse(s).unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        let x = b("10,λ,011");
        assert_eq!(x.to_string(), "⟨10, λ, 011⟩");
        assert_eq!(x.n(), 3);
        assert!(x.get(1).is_lambda());
    }

    #[test]
    fn containment_per_component() {
        assert!(b("1,λ").contains(&b("10,01")));
        assert!(!b("10,01").contains(&b("1,λ")));
        assert!(b("λ,λ").contains(&b("10,01")));
        assert!(!b("0,λ").contains(&b("10,01")));
        // A box always contains itself.
        let x = b("01,1");
        assert!(x.contains(&x));
    }

    #[test]
    fn intersection_matches_set_semantics() {
        let space = Space::uniform(2, 3);
        let x = b("1,λ");
        let y = b("10,01");
        let z = x.intersection(&y).unwrap();
        assert_eq!(z, b("10,01"));
        assert!(x.intersects(&y));
        let w = b("0,λ");
        assert!(!w.intersects(&y));
        assert_eq!(w.intersection(&y), None);
        // Point membership agrees.
        let mut both = 0;
        space.for_each_point(|p| {
            if x.contains_point(p, &space) && y.contains_point(p, &space) {
                assert!(z.contains_point(p, &space));
                both += 1;
            }
        });
        assert_eq!(both as u128, z.volume(&space));
    }

    #[test]
    fn unit_boxes_and_points() {
        let space = Space::from_widths(&[2, 3]);
        let p = DyadicBox::from_point(&[2, 5], &space);
        assert!(p.is_unit(&space));
        assert_eq!(p.to_point(&space), vec![2, 5]);
        assert_eq!(p.to_string(), "⟨10, 101⟩");
        assert!(!DyadicBox::universe(2).is_unit(&space));
    }

    #[test]
    fn split_first_thick_dimension() {
        let space = Space::uniform(3, 2);
        // Lemma C.1 shape: full-length, then partial, then λ.
        let x = b("10,0,λ");
        let (b1, b2, dim) = x.split_first_thick(&space).unwrap();
        assert_eq!(dim, 1);
        assert_eq!(b1, b("10,00,λ"));
        assert_eq!(b2, b("10,01,λ"));
        // Splitting partitions the box.
        assert_eq!(b1.volume(&space) + b2.volume(&space), x.volume(&space));
        assert!(x.contains(&b1) && x.contains(&b2));
        assert!(!b1.intersects(&b2));
        // A unit box cannot be split.
        let u = DyadicBox::from_point(&[1, 2, 3], &space);
        assert!(u.split_first_thick(&space).is_none());
    }

    #[test]
    fn support_mask_matches_non_lambda_dims() {
        assert_eq!(b("10,λ,011").support_mask(), 0b101);
        assert_eq!(DyadicBox::universe(4).support_mask(), 0);
    }

    #[test]
    fn prefix_box_relation() {
        // Definition C.2 examples.
        let full = b("10,011,λ");
        assert!(b("10,0,λ").is_prefix_box_of(&full));
        assert!(b("10,λ,λ").is_prefix_box_of(&full));
        assert!(b("1,λ,λ").is_prefix_box_of(&full));
        assert!(DyadicBox::universe(3).is_prefix_box_of(&full));
        assert!(full.is_prefix_box_of(&full));
        // Not prefixes: diverging early component, or trailing non-λ.
        assert!(!b("11,0,λ").is_prefix_box_of(&full));
        assert!(!b("10,λ,1").is_prefix_box_of(&full));
        // A prefix box always contains the original.
        assert!(b("10,0,λ").contains(&full));
    }

    #[test]
    fn projection_and_permutation() {
        let x = b("10,01,1");
        assert_eq!(x.project_mask(0b011), b("10,01,λ"));
        assert_eq!(x.project_mask(0), DyadicBox::universe(3));
    }

    #[test]
    fn volume_in_space() {
        let space = Space::uniform(2, 3);
        assert_eq!(DyadicBox::universe(2).volume(&space), 64);
        assert_eq!(b("1,λ").volume(&space), 32);
        assert_eq!(b("101,011").volume(&space), 1);
    }
}
