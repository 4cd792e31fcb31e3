//! Path-query (treewidth 1) instances whose input size `N` and box
//! certificate size `|C|` scale independently — the workloads behind the
//! `Õ(|C| + Z)` bound of Theorem 4.7.

use relation::{Relation, Schema};

/// A two-atom path instance `R(A,B) ⋈ S(B,C)` with an empty output and a
/// **comb certificate**: the `B` domain is carved into `2k` equal dyadic
/// blocks; `R`'s `B`-values occupy the even blocks and `S`'s the odd
/// blocks, so the `(B,·)`-sorted indexes certify emptiness with `Θ(k)`
/// gap boxes no matter how many tuples fill the blocks.
pub struct CombPathInstance {
    /// R(A,B).
    pub r: Relation,
    /// S(B,C).
    pub s: Relation,
    /// Per-attribute bit width.
    pub width: u8,
    /// Number of blocks per side (`k`); the optimal certificate has ~`2k`
    /// boxes.
    pub k: usize,
}

/// Build a comb instance: `k` must be a power of two dividing the domain;
/// each occupied block holds `per_block` distinct `B` values, each paired
/// with `fanout` partner values, so `N ≈ 2·k·per_block·fanout` while
/// `|C| ≈ 2k`.
pub fn comb_path(k: usize, per_block: usize, fanout: usize, width: u8) -> CombPathInstance {
    assert!(k.is_power_of_two(), "k must be a power of two");
    let blocks = 2 * k as u64;
    let dom = 1u64 << width;
    assert!(blocks <= dom, "2k blocks must fit the {width}-bit domain");
    let block_size = dom / blocks;
    assert!(
        per_block as u64 <= block_size,
        "per_block exceeds block size"
    );
    let fan = (fanout as u64).min(dom);

    let mut r_pairs = Vec::new();
    let mut s_pairs = Vec::new();
    for blk in 0..blocks {
        let base = blk * block_size;
        for j in 0..per_block as u64 {
            let b = base + (j * block_size) / per_block as u64;
            for a in 0..fan {
                if blk % 2 == 0 {
                    r_pairs.push(vec![a, b]); // (A, B)
                } else {
                    s_pairs.push(vec![b, a]); // (B, C)
                }
            }
        }
    }
    CombPathInstance {
        r: Relation::new(Schema::uniform(&["A", "B"], width), r_pairs),
        s: Relation::new(Schema::uniform(&["B", "C"], width), s_pairs),
        width,
        k,
    }
}

/// A half-split path instance (the `k = 1` comb): `R`'s `B`-values live in
/// the bottom half of the domain and `S`'s in the top half, so **two** gap
/// boxes certify the empty join regardless of `N` — the sharpest
/// `|C| = O(1) ≪ N` case.
pub fn half_split_path(tuples_per_side: usize, width: u8) -> CombPathInstance {
    let half = 1u64 << (width - 1);
    let n = tuples_per_side as u64;
    let mut r_pairs = Vec::new();
    let mut s_pairs = Vec::new();
    for i in 0..n {
        let b_low = i % half;
        let b_high = half + (i % half);
        let partner = i % (1u64 << width);
        r_pairs.push(vec![partner, b_low]);
        s_pairs.push(vec![b_high, partner]);
    }
    CombPathInstance {
        r: Relation::new(Schema::uniform(&["A", "B"], width), r_pairs),
        s: Relation::new(Schema::uniform(&["B", "C"], width), s_pairs),
        width,
        k: 1,
    }
}

/// A `k`-atom chain query `R₁(A₁,A₂) ⋈ … ⋈ R_k(A_k, A_{k+1})` populated
/// with random tuples (for acyclic worst-case scaling, Theorem D.8).
/// Returns the relations in chain order.
pub fn random_chain(atoms: usize, tuples_per_atom: usize, width: u8, seed: u64) -> Vec<Relation> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dom = 1u64 << width;
    (0..atoms)
        .map(|_| {
            let pairs: Vec<Vec<u64>> = (0..tuples_per_atom)
                .map(|_| vec![rng.gen_range(0..dom), rng.gen_range(0..dom)])
                .collect();
            Relation::new(Schema::uniform(&["X", "Y"], width), pairs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comb_blocks_are_disjoint() {
        let inst = comb_path(4, 2, 3, 6);
        // R's B-values and S's B-values never collide.
        let rb: Vec<u64> = inst.r.tuples().map(|t| t[1]).collect();
        let sb: Vec<u64> = inst.s.tuples().map(|t| t[0]).collect();
        for b in &rb {
            assert!(!sb.contains(b), "B value {b} appears on both sides");
        }
        assert!(!rb.is_empty() && !sb.is_empty());
    }

    #[test]
    fn comb_join_is_empty() {
        let inst = comb_path(2, 2, 2, 5);
        for rt in inst.r.tuples() {
            for st in inst.s.tuples() {
                assert_ne!(rt[1], st[0], "join should be empty");
            }
        }
    }

    #[test]
    fn comb_scales_n_independently_of_k() {
        let small = comb_path(2, 1, 1, 8);
        let big = comb_path(2, 8, 16, 8);
        assert_eq!(small.k, big.k);
        assert!(big.r.len() > 10 * small.r.len());
    }

    #[test]
    fn half_split_sides_are_separated() {
        let inst = half_split_path(50, 6);
        let half = 1u64 << 5;
        assert!(inst.r.tuples().all(|t| t[1] < half));
        assert!(inst.s.tuples().all(|t| t[0] >= half));
    }

    #[test]
    fn random_chain_shapes() {
        let chain = random_chain(3, 20, 5, 42);
        assert_eq!(chain.len(), 3);
        for rel in &chain {
            assert!(rel.len() <= 20);
            assert!(!rel.is_empty());
        }
        // Deterministic under the same seed.
        let again = random_chain(3, 20, 5, 42);
        assert_eq!(chain[0], again[0]);
    }
}
