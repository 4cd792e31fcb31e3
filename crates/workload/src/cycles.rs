//! Cyclic-query instances beyond the triangle: 4-cycles (treewidth 2) for
//! the `Õ(|C|^{w+1})` certificate bound.

use relation::{Relation, Schema};

/// A 4-cycle instance `R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D) ⋈ R4(D,A)`.
pub struct FourCycleInstance {
    /// The four relations, in cycle order.
    pub rels: Vec<Relation>,
    /// Per-attribute bit width.
    pub width: u8,
}

/// Comb-certificate 4-cycle: the `B` attribute's domain is split into
/// `2k` blocks with `R1`'s `B`-values in even blocks and `R2`'s in odd
/// blocks, so the join is empty with a `Θ(k)`-box certificate while the
/// other two relations (and the block fill) push `N` arbitrarily high.
pub fn comb_four_cycle(k: usize, per_block: usize, fanout: usize, width: u8) -> FourCycleInstance {
    assert!(k.is_power_of_two());
    let blocks = 2 * k as u64;
    let dom = 1u64 << width;
    assert!(blocks <= dom);
    let block_size = dom / blocks;
    assert!(per_block as u64 <= block_size);
    let fan = (fanout as u64).min(dom);

    let mut r1 = Vec::new(); // (A, B): B in even blocks
    let mut r2 = Vec::new(); // (B, C): B in odd blocks
    for blk in 0..blocks {
        let base = blk * block_size;
        for j in 0..per_block as u64 {
            let b = base + (j * block_size) / per_block as u64;
            for x in 0..fan {
                if blk % 2 == 0 {
                    r1.push(vec![x, b]);
                } else {
                    r2.push(vec![b, x]);
                }
            }
        }
    }
    // R3, R4: dense enough to not constrain the (empty) join.
    let mut dense = Vec::new();
    for x in 0..fan {
        for y in 0..fan {
            dense.push(vec![x, y]);
        }
    }
    let rels = vec![
        Relation::new(Schema::uniform(&["X", "Y"], width), r1),
        Relation::new(Schema::uniform(&["X", "Y"], width), r2),
        Relation::new(Schema::uniform(&["X", "Y"], width), dense.clone()),
        Relation::new(Schema::uniform(&["X", "Y"], width), dense),
    ];
    FourCycleInstance { rels, width }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comb_four_cycle_is_empty() {
        let inst = comb_four_cycle(2, 2, 2, 5);
        let r1b: Vec<u64> = inst.rels[0].tuples().map(|t| t[1]).collect();
        let r2b: Vec<u64> = inst.rels[1].tuples().map(|t| t[0]).collect();
        for b in &r1b {
            assert!(!r2b.contains(b));
        }
    }
}
