//! Randomized store-conformance wall: the [`BoxTree`] knowledge base,
//! driven through random interleavings of inserts, untracked probes,
//! engine-shaped tracked probe chains, clears, and shard extractions —
//! each observable answer checked against a naive reference store.
//!
//! The reference pins the full store contract, not just set membership:
//!
//! * **DFS-first witnesses** — `find_containing` must return the
//!   containing box that the multilevel DFS reaches first, i.e. the one
//!   with the lexicographically least per-dimension prefix-length
//!   vector (shortest dim-0 prefix wins, then dim 1, …).
//! * **Tracked = untracked** — `find_containing_tracked` must be
//!   witness-identical to `find_containing` under arbitrary interleaved
//!   inserts and clears (frontier advance, insert-log repair and
//!   full-walk fallback all fire here).
//! * **Exact shards** — `extract_intersecting_into` must produce
//!   exactly the stored boxes intersecting the target.
//! * **Monotone epochs** — content changes advance the epoch.
//! * **Frontiers cross dimensions** — an engine-shaped descent (split the
//!   first thick dimension, 0-side first, the 1-side from the frame's
//!   saved frontier) runs every dimension to full width and continues
//!   into the next. After every miss the carried frontier equals the one
//!   a fresh full walk records, and a full walk happens only where the
//!   store cannot carry one.
//!
//! Every assertion message carries the `(seed, step)` pair, so a
//! failure is reproducible with a one-line filter.

use boxstore::{BoxTree, DescentProbe, FrontierStack, REPAIR_CAP};
use dyadic::{DyadicBox, DyadicInterval, MAX_DIMS};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEEDS: u64 = 36;
const STEPS_PER_SEED: usize = 300;

/// Brute-force reference store: a deduplicated vector of boxes.
#[derive(Debug, Default)]
struct NaiveStore {
    boxes: Vec<DyadicBox>,
    epoch_bumps: u64,
}

impl NaiveStore {
    fn insert(&mut self, b: &DyadicBox) -> bool {
        if self.boxes.contains(b) {
            return false;
        }
        self.boxes.push(*b);
        self.epoch_bumps += 1;
        true
    }

    fn clear(&mut self) {
        if !self.boxes.is_empty() {
            self.epoch_bumps += 1;
        }
        self.boxes.clear();
    }

    /// The DFS-first witness: the containing box whose prefix-length
    /// vector is lexicographically least.
    fn find_containing(&self, b: &DyadicBox) -> Option<DyadicBox> {
        self.boxes
            .iter()
            .filter(|c| c.contains(b))
            .min_by_key(|c| {
                let mut key = [0u8; MAX_DIMS];
                for (i, slot) in key.iter_mut().enumerate().take(c.n()) {
                    *slot = c.get(i).len();
                }
                key
            })
            .copied()
    }

    fn intersecting(&self, target: &DyadicBox) -> Vec<DyadicBox> {
        let mut out: Vec<DyadicBox> = self
            .boxes
            .iter()
            .filter(|c| c.intersects(target))
            .copied()
            .collect();
        out.sort();
        out
    }

    fn sorted(&self) -> Vec<DyadicBox> {
        let mut out = self.boxes.clone();
        out.sort();
        out
    }
}

fn random_box(rng: &mut StdRng, n: usize, width: u8) -> DyadicBox {
    let mut bx = DyadicBox::universe(n);
    for i in 0..n {
        let len = rng.gen_range(0..=width);
        let bits = rng.gen_range(0..(1u64 << len));
        bx.set(i, DyadicInterval::from_bits(bits, len));
    }
    bx
}

fn sorted_boxes(s: &BoxTree) -> Vec<DyadicBox> {
    let mut out = s.iter_boxes();
    out.sort();
    out
}

/// One random op sequence from one seed.
fn conformance_run(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=3);
    let width = rng.gen_range(2..=5) as u8;
    let mut store = BoxTree::new(n);
    let mut naive = NaiveStore::default();
    // One long-lived probe state: clears and unrelated-target probes in
    // between must be survivable (the store detects staleness itself).
    let mut probe = DescentProbe::new();
    let mut last_epoch = store.epoch();

    for step in 0..STEPS_PER_SEED {
        let ctx = || format!("seed={seed} step={step} n={n} width={width}");
        match rng.gen_range(0..20) {
            // Inserts dominate so repair windows stay busy.
            0..=8 => {
                let bx = random_box(&mut rng, n, width);
                let novel = naive.insert(&bx);
                assert_eq!(store.insert(&bx), novel, "{}: insert novelty", ctx());
            }
            9..=11 => {
                let bx = random_box(&mut rng, n, width);
                assert_eq!(
                    store.find_containing(&bx),
                    naive.find_containing(&bx),
                    "{}: untracked witness",
                    ctx()
                );
            }
            // Engine-shaped tracked chain: root-to-leaf at one dim, with
            // inserts racing the probes so the frontier must be repaired.
            // Skeleton probes always have λ components beyond the probed
            // dim (later dims are still unconstrained there) — tracked
            // probes are only defined for that shape.
            12..=16 => {
                let dim = rng.gen_range(0..n);
                let mut target = random_box(&mut rng, n, width);
                for i in dim + 1..n {
                    target.set(i, DyadicInterval::lambda());
                }
                for k in 0..=target.get(dim).len() {
                    let mut q = target;
                    q.set(dim, target.get(dim).truncate(k));
                    let got = store.find_containing_tracked(&q, dim, &mut probe);
                    assert_eq!(
                        got,
                        naive.find_containing(&q),
                        "{} k={k}: tracked witness",
                        ctx()
                    );
                    if got.is_some() {
                        break;
                    }
                    if rng.gen_range(0..3) == 0 {
                        let bx = random_box(&mut rng, n, width);
                        naive.insert(&bx);
                        store.insert(&bx);
                    }
                }
            }
            17 => {
                let target = random_box(&mut rng, n, width);
                let mut shard = BoxTree::new(n);
                store.extract_intersecting_into(&target, &mut shard);
                assert_eq!(
                    sorted_boxes(&shard),
                    naive.intersecting(&target),
                    "{}: extracted shard",
                    ctx()
                );
            }
            18 => {
                store.clear();
                naive.clear();
                assert!(store.is_empty(), "{}: clear leaves store empty", ctx());
            }
            _ => {
                assert_eq!(store.len(), naive.boxes.len(), "{}: len", ctx());
                assert_eq!(
                    sorted_boxes(&store),
                    naive.sorted(),
                    "{}: stored set",
                    ctx()
                );
            }
        }
        let epoch = store.epoch();
        assert!(epoch >= last_epoch, "{}: epoch must be monotone", ctx());
        last_epoch = epoch;
    }
    assert_eq!(
        sorted_boxes(&store),
        naive.sorted(),
        "seed={seed}: final stored set"
    );
    // The chains above must actually exercise the incremental paths,
    // otherwise this wall silently stops guarding them.
    assert!(
        probe.advances + probe.repairs + probe.full_walks > 0,
        "seed={seed}: no tracked probes fired"
    );
}

/// Directed clear-at-wrap scenario: drive the insert log `span + 37`
/// inserts past its start (wrapping the `REPAIR_CAP`-entry ring at
/// least once), `clear()` mid-ring with a live tracked frontier, then
/// keep probing — the stale frontier must be detected via the clear
/// stamp and every answer must still match the reference.
fn clear_at_wrap_run(span: usize) {
    let n = 2;
    let mut store = BoxTree::new(n);
    let mut naive = NaiveStore::default();
    let mut probe = DescentProbe::new();

    // Enumerate distinct 2-d boxes deterministically (width ≤ 4 gives
    // 31² = 961, plenty past one 64-entry wrap).
    let mut ivs = vec![DyadicInterval::lambda()];
    for len in 1..=4u8 {
        for bits in 0..(1u64 << len) {
            ivs.push(DyadicInterval::from_bits(bits, len));
        }
    }
    let boxes: Vec<DyadicBox> = ivs
        .iter()
        .flat_map(|a| {
            ivs.iter().map(move |b| {
                let mut x = DyadicBox::universe(2);
                x.set(0, *a);
                x.set(1, *b);
                x
            })
        })
        .collect();

    let check = |store: &BoxTree,
                 naive: &NaiveStore,
                 probe: &mut DescentProbe,
                 probes: &[DyadicBox],
                 when: &str| {
        for q in probes {
            assert_eq!(
                store.find_containing_tracked(q, n - 1, probe),
                naive.find_containing(q),
                "span={span} {when}: tracked witness for {q:?}"
            );
        }
    };

    // Phase 1: wrap the ring (span + 37 inserts lands mid-ring),
    // probing as we go so the frontier is live at the clear.
    let wrap_inserts = span + 37;
    for (i, bx) in boxes.iter().take(wrap_inserts).enumerate() {
        assert_eq!(store.insert(bx), naive.insert(bx), "insert {bx:?}");
        if i % 16 == 0 {
            check(&store, &naive, &mut probe, &boxes[200..204], "pre-clear");
        }
    }

    // Phase 2: clear mid-ring. Every saved frontier and every ring
    // entry is now stale; the store must notice on its own.
    store.clear();
    naive.clear();
    assert!(store.is_empty());
    check(&store, &naive, &mut probe, &boxes[..8], "post-clear");

    // Phase 3: rebuild past another wrap; answers must track the
    // reference with no ghosts from before the clear.
    for bx in boxes.iter().skip(300).take(span + 10) {
        assert_eq!(store.insert(bx), naive.insert(bx), "re-insert {bx:?}");
    }
    check(&store, &naive, &mut probe, &boxes[290..330], "post-rebuild");
    assert!(
        probe.advances + probe.repairs + probe.full_walks > 0,
        "span={span}: no tracked probes fired"
    );
}

/// Directed implicit-leaf scenario: a scripted insert sequence that
/// ends λ-tails at every level (and at the root), re-inserts leaves,
/// and turns leaves into nodes from the insert cursor's resume point,
/// from a fresh path and under another leaf. After every insert an
/// engine-shaped tracked chain runs with a racing insert that passes
/// through the chain's frontier; the racer's sibling is probed through
/// a saved-and-restored frontier. Every answer is checked against the
/// reference.
#[test]
fn implicit_leaves_box_tree() {
    let parse = |s: &str| DyadicBox::parse(s).unwrap();
    let mut store = BoxTree::new(3);
    let mut naive = NaiveStore::default();
    let mut probe = DescentProbe::new();
    let mut frontiers = FrontierStack::new();
    // (inserted box, then a tracked chain's probed dimension and target)
    let script: [(&str, usize, &str); 12] = [
        ("01,λ,λ", 0, "011,λ,λ"),   // tail ends on level 0
        ("00,λ,λ", 0, "001,λ,λ"),   // sibling leaf under the same node
        ("011,λ,λ", 0, "0111,λ,λ"), // promotes ⟨01,λ,λ⟩ from the resume point
        ("01,λ,λ", 1, "01,01,λ"),   // duplicate leaf, reached on a fresh path
        ("1,0,λ", 1, "1,01,λ"),     // tail ends on level 1
        ("1,0,1", 2, "1,0,11"),     // leaf under leaf: "1,0"'s end, level-2 root
        ("1,0,λ", 2, "1,0,0"),      // duplicate of a promoted leaf
        ("0,1,10", 2, "0,1,101"),   // tail ends on level 2
        ("0,1,101", 2, "0,1,1011"), // promotes ⟨0,1,10⟩'s terminal leaf
        ("λ,1,λ", 1, "1,11,λ"),     // tail ends on level 1 under the root
        ("λ,1,0", 2, "λ,1,01"),     // promotes ⟨λ,1,λ⟩'s leaf chain
        ("λ,λ,λ", 0, "10,λ,λ"),     // the universe box: tail at the root
    ];
    let untracked = [
        "λ,λ,λ", "0,λ,λ", "011,0,1", "1,0,11", "0,1,101", "11,1,0", "λ,1,01", "00,01,1",
    ];
    for (step, &(insert, dim, target)) in script.iter().enumerate() {
        let ctx = |what: &str| format!("step={step} ({insert}): {what}");
        let bx = parse(insert);
        assert_eq!(
            store.insert(&bx),
            naive.insert(&bx),
            "{}",
            ctx("insert novelty")
        );
        assert_eq!(
            sorted_boxes(&store),
            naive.sorted(),
            "{}",
            ctx("stored set")
        );
        for q in untracked.map(parse) {
            assert_eq!(
                store.find_containing(&q),
                naive.find_containing(&q),
                "{}",
                ctx(&format!("untracked witness for {q}"))
            );
        }
        let target = parse(target);
        let full = target.get(dim);
        for k in 0..=full.len() {
            let q = target.with(dim, full.truncate(k));
            let got = store.find_containing_tracked(&q, dim, &mut probe);
            assert_eq!(
                got,
                naive.find_containing(&q),
                "{}",
                ctx(&format!("tracked witness k={k}"))
            );
            if got.is_some() || k == full.len() {
                break;
            }
            // Race: save the frontier, insert a box through the position
            // below it on the sibling side, then probe that sibling
            // through the restored frontier.
            frontiers.clear();
            frontiers.push_saved(&probe);
            let sib_bit = 1 - ((full.bits() >> (full.len() - 1 - k)) & 1) as u8;
            let sib = q.with(dim, q.get(dim).child(sib_bit));
            let racer = sib.with(dim, sib.get(dim).child(1));
            assert_eq!(
                store.insert(&racer),
                naive.insert(&racer),
                "{}",
                ctx("racer")
            );
            let mut restored = DescentProbe::new();
            assert!(frontiers.restore_top(&q, &mut restored));
            assert_eq!(
                store.find_containing_tracked(&sib, dim, &mut restored),
                naive.find_containing(&sib),
                "{}",
                ctx(&format!("restored sibling k={k}"))
            );
        }
    }
    assert_eq!(sorted_boxes(&store), naive.sorted(), "final stored set");
}

#[test]
fn box_tree_conforms() {
    for seed in 0..SEEDS {
        conformance_run(seed);
    }
}

#[test]
fn clear_at_wrap_box_tree() {
    // One lap of the ring before the clear, then several.
    for span in [REPAIR_CAP as usize, 4 * REPAIR_CAP as usize] {
        clear_at_wrap_run(span);
    }
}

/// An engine-shaped descent over a space whose dimensions may have zero
/// width: the probes `Skeleton::drive` makes, with inserts racing them.
struct CrossingRun {
    ctx: String,
    widths: Vec<u8>,
    store: BoxTree,
    naive: NaiveStore,
    rng: StdRng,
    probe: DescentProbe,
    frontiers: FrontierStack,
    /// Novel inserts so far (the store's insert count), and clears.
    inserts: u64,
    clears: u64,
    /// The live frontier's probed dimension, insert mark and clear count
    /// (`None` after a hit), and the same for each saved frame.
    live: Option<(usize, u64, u64)>,
    saved: Vec<(usize, u64, u64)>,
    /// Probes made; crossings (carried into the next dimension), those
    /// past dimension 0 (whose roots span several combinations of earlier
    /// prefixes) and those that repaired racing inserts on the way; and
    /// probes that lagged past `REPAIR_CAP` or skipped a zero-width
    /// dimension (each of which must full-walk).
    probes: u64,
    crossings: u64,
    sorted_crossings: u64,
    repaired_crossings: u64,
    lagged: u64,
    skipped: u64,
}

impl CrossingRun {
    fn n(&self) -> usize {
        self.widths.len()
    }

    /// A random component of at least `width − 1` bits (short ones
    /// cover most of a small space).
    fn random_interval(&mut self, width: u8) -> DyadicInterval {
        let len = self.rng.gen_range(width.saturating_sub(1)..=width);
        DyadicInterval::from_bits(self.rng.gen_range(0..(1u64 << len)), len)
    }

    fn random_box(&mut self) -> DyadicBox {
        let mut bx = DyadicBox::universe(self.n());
        for i in 0..self.n() {
            let iv = self.random_interval(self.widths[i]);
            bx.set(i, iv);
        }
        bx
    }

    fn insert(&mut self, bx: &DyadicBox) {
        let novel = self.naive.insert(bx);
        assert_eq!(self.store.insert(bx), novel, "{}: insert {bx}", self.ctx);
        self.inserts += u64::from(novel);
    }

    /// A box on `t`'s path: components before `d` are prefixes of `t`'s,
    /// the one at `d` shares a random prefix of `t[d]` and may go deeper,
    /// and the later ones are `λ` (a λ-tailed box, now and then) or
    /// random (a box that continues into the next dimensions).
    fn racer(&mut self, t: &DyadicBox, d: usize) -> DyadicBox {
        let mut bx = DyadicBox::universe(self.n());
        for i in 0..d {
            let full = t.get(i).len();
            let len = self.rng.gen_range(full.saturating_sub(1)..=full);
            bx.set(i, t.get(i).truncate(len));
        }
        let mut c = t.get(d).truncate(self.rng.gen_range(0..=t.get(d).len()));
        while c.len() < self.widths[d] && self.rng.gen_range(0..3) > 0 {
            c = c.child(self.rng.gen_range(0..2));
        }
        bx.set(d, c);
        if self.rng.gen_range(0..4) > 0 {
            for i in d + 1..self.n() {
                let iv = self.random_interval(self.widths[i]);
                bx.set(i, iv);
            }
        }
        bx
    }

    /// Race inserts against the live descent: mostly a few boxes on the
    /// current target's path, now and then more than `REPAIR_CAP` of them.
    fn race(&mut self, t: &DyadicBox, d: usize) {
        if self.rng.gen_range(0..150) == 0 {
            // Mid-descent: every saved frontier goes stale.
            self.store.clear();
            self.naive.clear();
            self.clears += 1;
        }
        let count = match self.rng.gen_range(0..40) {
            0 => REPAIR_CAP as usize + 1 + self.rng.gen_range(0..8usize),
            1..=20 => 0,
            _ => self.rng.gen_range(1..4usize),
        };
        for _ in 0..count {
            let bx = if self.rng.gen_range(0..4) == 0 {
                self.random_box()
            } else {
                self.racer(t, d)
            };
            self.insert(&bx);
        }
    }

    fn first_thick(&self, t: &DyadicBox) -> Option<usize> {
        (0..self.n()).find(|&i| t.get(i).len() < self.widths[i])
    }

    /// Probe `t` tracked, check it, and descend into its halves on a miss.
    fn descend(&mut self, t: DyadicBox) {
        let thick = self.first_thick(&t);
        let dim = thick.unwrap_or(self.n() - 1);
        let carried = match self.live {
            None => false,
            Some((_, _, clears)) if clears != self.clears => false,
            Some((sd, mark, _)) => {
                let lagged = self.inserts - mark > REPAIR_CAP;
                let skipped = dim != sd && dim != sd + 1;
                self.lagged += u64::from(lagged);
                self.skipped += u64::from(skipped && !lagged);
                let crossing = !lagged && dim == sd + 1;
                self.crossings += u64::from(crossing);
                self.sorted_crossings += u64::from(crossing && sd > 0);
                self.repaired_crossings += u64::from(crossing && self.inserts > mark);
                !lagged && !skipped
            }
        };
        let full_walks = self.probe.full_walks;
        let got = self.store.find_containing_tracked(&t, dim, &mut self.probe);
        self.probes += 1;
        let ctx = format!("{} target={t} dim={dim}", self.ctx);
        assert_eq!(
            got,
            self.naive.find_containing(&t),
            "{ctx}: tracked witness"
        );
        assert_eq!(
            got,
            self.store.find_containing(&t),
            "{ctx}: untracked witness"
        );
        assert_eq!(
            self.probe.full_walks > full_walks,
            !carried,
            "{ctx}: a full walk only for a first probe, after a hit or a \
             clear, past a lag of REPAIR_CAP, or across a zero-width dimension"
        );
        if got.is_some() {
            self.live = None;
            return;
        }
        let mut fresh = DescentProbe::new();
        assert_eq!(
            self.store.find_containing_tracked(&t, dim, &mut fresh),
            None
        );
        assert!(
            self.probe.same_frontier(&fresh),
            "{ctx}: the carried frontier differs from a fresh full walk's"
        );
        self.live = Some((dim, self.inserts, self.clears));
        let Some(d) = thick else {
            return; // an uncovered unit box
        };
        if self.rng.gen_range(0..8) == 0 {
            self.race(&t, d);
        }
        self.frontiers.push_saved(&self.probe);
        self.saved
            .push(self.live.expect("a miss leaves a frontier"));
        self.descend(t.with(d, t.get(d).child(0)));
        self.race(&t, d);
        assert!(self.frontiers.restore_top(&t, &mut self.probe));
        self.live = self.saved.last().copied();
        self.descend(t.with(d, t.get(d).child(1)));
        self.frontiers.pop();
        self.saved.pop();
    }
}

/// Engine-shaped descents whose frontiers cross dimension boundaries:
/// random spaces of 1–3 dimensions, some of zero width, each descended
/// from the universe down with racing inserts (on the target's path,
/// λ-tailed or continuing, now and then more than `REPAIR_CAP` at once),
/// 1-sides entered through the frame's saved frontier, and a clear
/// between some descents. Every answer equals `find_containing` and the
/// reference; after every miss the carried frontier equals a fresh full
/// walk's; and a full walk happens exactly on a first probe, after a hit
/// or a clear, past a lag of `REPAIR_CAP`, or across a zero-width
/// dimension.
#[test]
fn frontiers_cross_dimensions() {
    let (mut probes, mut crossings, mut sorted, mut repaired) = (0, 0, 0, 0);
    let (mut lagged, mut skipped) = (0, 0);
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let n = rng.gen_range(1..=3);
        let widths: Vec<u8> = (0..n)
            .map(|_| {
                if rng.gen_range(0..5) == 0 {
                    0
                } else {
                    rng.gen_range(1..=4)
                }
            })
            .collect();
        let mut run = CrossingRun {
            ctx: format!("seed={seed} widths={widths:?}"),
            store: BoxTree::new(n),
            naive: NaiveStore::default(),
            widths,
            rng,
            probe: DescentProbe::new(),
            frontiers: FrontierStack::new(),
            inserts: 0,
            clears: 0,
            live: None,
            saved: Vec::new(),
            probes: 0,
            crossings: 0,
            sorted_crossings: 0,
            repaired_crossings: 0,
            lagged: 0,
            skipped: 0,
        };
        for step in 0..6 {
            run.ctx = format!("seed={seed} step={step} widths={:?}", run.widths);
            if step > 0 && run.rng.gen_range(0..3) == 0 {
                run.store.clear();
                run.naive.clear();
                run.clears += 1;
            }
            for _ in 0..run.rng.gen_range(0..12) {
                let bx = run.random_box();
                run.insert(&bx);
            }
            // The universe is no child of the last target: a full walk.
            run.live = None;
            run.descend(DyadicBox::universe(n));
            assert!(run.frontiers.is_empty());
        }
        probes += run.probes;
        crossings += run.crossings;
        sorted += run.sorted_crossings;
        repaired += run.repaired_crossings;
        lagged += run.lagged;
        skipped += run.skipped;
    }
    // The wall must reach every case it guards.
    assert!(probes > 6_000, "{probes} probes");
    assert!(crossings > 800, "{crossings} crossings");
    assert!(sorted > 600, "{sorted} crossings past dimension 0");
    assert!(repaired > 400, "{repaired} crossings that repaired");
    assert!(lagged > 0, "no frontier lagged past REPAIR_CAP");
    assert!(skipped > 0, "no descent crossed a zero-width dimension");
}
