//! Compare a fresh bench JSONL sweep against a checked-in snapshot and
//! fail on wall-clock regressions — the CI gate for the engine's
//! constant-factor work (EXPERIMENTS.md §5) and for the large-graph tier
//! (EXPERIMENTS.md §6).
//!
//! Usage:
//!
//! ```text
//! bench_compare <baseline.jsonl> <candidate.jsonl> [--max-ratio R] [--gate skew400|t2-graphs]
//! bench_compare --check-profile <profile.jsonl>
//! bench_compare --check-chrome <trace.json>
//! bench_compare --check-provenance <provenance.jsonl>
//! ```
//!
//! Rows are keyed by `(experiment[:graph], N, k)`; every key present in
//! both files with a `tetris_s` column is reported. Two gates exist:
//!
//! * `skew400` (default) — the skew-triangle m = 400 row of the T1.2
//!   sweep (`N = 2403`, the row with a `hash_intermediate` column): its
//!   `tetris_s` must not exceed `max-ratio` × the baseline's (default
//!   2.0).
//! * `t2-graphs` — the large-graph tier: every matched `t2-graphs` row
//!   with ≥ 10⁵ edges is gated at `max-ratio`; at least one such row must
//!   match or the comparison fails.
//!
//! Independent of the gate, on every matched row `resolutions` must not
//! grow at all (the paper's bounds are stated in resolutions, so any
//! increase is a correctness-of-cost regression, not noise) and
//! `triangles` must be **equal** (listing output is deterministic — a
//! mismatch is a correctness bug, never noise).
//!
//! **Profile rows** (experiment names ending in `-profile`, written by
//! `t2_graphs --profile`) are ledger evidence, not ratchet material:
//! their wall cells include metrics-on overhead and their parallel
//! counters are scheduling-dependent, so `compare` *skips* them with an
//! explicit report line (mirroring the null-RSS skip semantics) whether
//! or not the other snapshot carries them. They are checked instead by
//! `--check-profile`, which asserts the ledger-balance invariants on
//! every row of a profile file: each histogram's total must equal its
//! counter column (`depth_hist` ↔ `resolutions`, `walk_hist` ↔
//! `kb_queries`, `repair_hist` ↔ `repairs`, `donate_hist` ↔
//! `donations`), sequential rows must balance `advances + repairs +
//! full_walks == kb_queries` exactly, and the memory ledger must be
//! present and sane. Parallel rows bound the probe sum between
//! `kb_queries` and `2·kb_queries` (frozen base + overlay shard per
//! query).
//!
//! Rows carrying an `attr` cell (the SAO-prefix attribution ledger,
//! written since PR 10) additionally must balance: the per-prefix
//! resolution counts sum to the row's `resolutions` column **exactly in
//! every mode** (the attribution site is adjacent to the resolution
//! counter and worker ledgers merge losslessly), re-resolutions never
//! exceed resolutions, attributed inserts never exceed `kb_inserts`
//! (preload bulk builds are unattributed), and repair hits never exceed
//! `repairs`. The report names each row's top-3 hottest prefixes.
//!
//! `--check-chrome` validates a `t2_graphs --trace-out` file: a Chrome
//! trace-event JSON array with one complete (`"ph":"X"`) event object
//! per line, every event carrying numeric `ts`/`dur`/`pid`/`tid` — each
//! line is re-parsed with the same flat-object JSONL parser the
//! snapshots use. `--check-provenance` validates a `t2_graphs
//! --provenance` file: every `t2-provenance` row must carry the replay
//! fields (query, generator seed, descent/threads, counters) and
//! an attribution ledger balancing its own `resolutions` column.
//! Provenance rows are replay metadata, never ratchet material —
//! `compare` skips them with an explicit report line just like profile
//! rows (they are not written to snapshots, but a stray append must
//! never gate).

use bench::{parse_jsonl_row, row_field, JsonValue};
use obs::{AttributionLedger, Pow2Histogram};

/// The skew400 gate row: skew triangle at m = 400 (N = 3·(2·400+1) = 2403).
const GATE_N: f64 = 2403.0;

/// Edge count from which t2-graphs rows are wall-time gated (smaller rows
/// finish in microseconds and are pure noise).
const T2_GATE_EDGES: f64 = 100_000.0;

/// Which row family the wall-time gate applies to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Gate {
    Skew400,
    T2Graphs,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut paths, mut max_ratio, mut gate) = (Vec::new(), 2.0f64, Gate::Skew400);
    let (mut profile_mode, mut chrome_mode, mut provenance_mode) = (false, false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--max-ratio" {
            max_ratio = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--max-ratio needs a number");
        } else if a == "--gate" {
            gate = match it.next().map(String::as_str) {
                Some("skew400") => Gate::Skew400,
                Some("t2-graphs") => Gate::T2Graphs,
                other => panic!("--gate must be skew400 or t2-graphs, got {other:?}"),
            };
        } else if a == "--check-profile" {
            profile_mode = true;
        } else if a == "--check-chrome" {
            chrome_mode = true;
        } else if a == "--check-provenance" {
            provenance_mode = true;
        } else {
            paths.push(a.clone());
        }
    }
    let check_modes = [
        (profile_mode, "--check-profile"),
        (chrome_mode, "--check-chrome"),
        (provenance_mode, "--check-provenance"),
    ];
    if let Some((_, flag)) = check_modes.iter().find(|(on, _)| *on) {
        if paths.len() != 1 || check_modes.iter().filter(|(on, _)| *on).count() != 1 {
            eprintln!("usage: bench_compare {flag} <file>");
            std::process::exit(2);
        }
        let result = if chrome_mode {
            let path = &paths[0];
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            check_chrome(&text)
        } else if provenance_mode {
            check_provenance(&load(&paths[0]))
        } else {
            check_profile(&load(&paths[0]))
        };
        match result {
            Ok(report) => println!("{report}"),
            Err(report) => {
                eprintln!("{report}");
                std::process::exit(1);
            }
        }
        return;
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: bench_compare <baseline.jsonl> <candidate.jsonl> \
             [--max-ratio R] [--gate skew400|t2-graphs] | \
             bench_compare --check-profile <profile.jsonl> | \
             bench_compare --check-chrome <trace.json> | \
             bench_compare --check-provenance <provenance.jsonl>"
        );
        std::process::exit(2);
    }
    let baseline = load(&paths[0]);
    let candidate = load(&paths[1]);
    match compare(&baseline, &candidate, max_ratio, gate) {
        Ok(report) => println!("{report}"),
        Err(report) => {
            eprintln!("{report}");
            std::process::exit(1);
        }
    }
}

type Row = Vec<(String, JsonValue)>;

fn load(path: &str) -> Vec<Row> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            parse_jsonl_row(l)
                .unwrap_or_else(|| panic!("malformed JSONL in {path} at line {}: {l}", i + 1))
        })
        .collect()
}

/// Identity of a row for cross-file matching. The `graph` column (the
/// t2-graphs family name) folds into the experiment key so random/skewed/
/// power-law rows at the same N stay distinct, and the `threads` column
/// (the parallel-descent sweep) folds in so each worker count is gated
/// against its own baseline row. Older snapshots also carry the box-store
/// A/B columns `backend` and `shards`; their non-default values fold in,
/// so rows of removed stores never match a fresh sweep.
fn key(row: &Row) -> Option<(String, u64, u64)> {
    let mut exp = row_field(row, "experiment")?.as_str()?.to_string();
    // The query-zoo column folds in only for non-triangle rows, so the
    // triangle rows of every pre-zoo snapshot (which have no `query`
    // field at all) keep their exact keys and stay gate-comparable.
    if let Some(q) = row_field(row, "query").and_then(|v| v.as_str()) {
        if q != "triangle" {
            exp = format!("{exp}:q={q}");
        }
    }
    if let Some(g) = row_field(row, "graph").and_then(|v| v.as_str()) {
        exp = format!("{exp}:{g}");
    }
    // A row with no `backend` column keys as a `binary` row: the binary
    // store is the only one left, so fresh sweeps (which no longer write
    // the column) match the snapshots' binary rows exactly.
    if let Some(b) = row_field(row, "backend").and_then(|v| v.as_str()) {
        if b != "binary" {
            exp = format!("{exp}:{b}");
        }
    }
    if let Some(t) = row_field(row, "threads").and_then(|v| v.as_num()) {
        exp = format!("{exp}:t{t}");
    }
    // The shards column (the removed subcube-partitioned store) folds in
    // only when it is not the monolithic default, so `shards=1` rows
    // keep the exact keys of fresh sweeps and stay gate-comparable.
    if let Some(s) = row_field(row, "shards").and_then(|v| v.as_num()) {
        if s != 1.0 {
            exp = format!("{exp}:s{s}");
        }
    }
    let n = row_field(row, "N")?.as_num()? as u64;
    let k = row_field(row, "k").and_then(|v| v.as_num()).unwrap_or(0.0) as u64;
    Some((exp, n, k))
}

fn is_skew400_gate(row: &Row) -> bool {
    row_field(row, "N").and_then(|v| v.as_num()) == Some(GATE_N)
        && row_field(row, "hash_intermediate").is_some()
}

fn is_t2_gate(row: &Row) -> bool {
    row_field(row, "experiment").and_then(|v| v.as_str()) == Some("t2-graphs")
        && row_field(row, "edges").and_then(|v| v.as_num()) >= Some(T2_GATE_EDGES)
}

/// Profile rows (experiment `*-profile`): metrics-on ledger evidence
/// whose wall and counter cells must never be ratcheted — see the module
/// docs and [`check_profile`].
fn is_profile_row(row: &Row) -> bool {
    row_field(row, "experiment")
        .and_then(|v| v.as_str())
        .is_some_and(|e| e.ends_with("-profile"))
}

/// Provenance rows (experiment `*-provenance`): replayable run records
/// from `t2_graphs --provenance`. They are written to their own file,
/// never to the snapshot — but a stray append must never gate, so
/// `compare` skips them explicitly (they also lack the `N` column, so
/// this is belt and suspenders over the key() skip).
fn is_provenance_row(row: &Row) -> bool {
    row_field(row, "experiment")
        .and_then(|v| v.as_str())
        .is_some_and(|e| e.ends_with("-provenance"))
}

/// Pure comparison logic (unit-tested below): `Ok(report)` when the gate
/// holds, `Err(report)` when it fails.
fn compare(
    baseline: &[Row],
    candidate: &[Row],
    max_ratio: f64,
    gate: Gate,
) -> Result<String, String> {
    let mut report = String::new();
    let mut gate_checked = false;
    let mut failures = Vec::new();
    for brow in baseline {
        if is_provenance_row(brow) {
            report.push_str(
                "provenance row — replay metadata, checked by --check-provenance, \
                 not ratcheted\n",
            );
            continue;
        }
        let Some(bkey) = key(brow) else { continue };
        // Skipped *before* the candidate lookup, so a profile experiment
        // present on only one side (older snapshots predate them) is
        // skipped identically to one present on both — an explicit
        // report line, never a failure (the null-RSS semantics).
        if is_profile_row(brow) {
            report.push_str(&format!(
                "{:<28} N={:<8} profile row — ledger-checked by --check-profile, \
                 not ratcheted\n",
                bkey.0, bkey.1
            ));
            continue;
        }
        let Some(crow) = candidate.iter().find(|c| key(c).as_ref() == Some(&bkey)) else {
            continue;
        };
        let (bs, cs) = (
            row_field(brow, "tetris_s").and_then(|v| v.as_num()),
            row_field(crow, "tetris_s").and_then(|v| v.as_num()),
        );
        if let (Some(bs), Some(cs)) = (bs, cs) {
            let ratio = if bs > 0.0 { cs / bs } else { f64::INFINITY };
            let gated = match gate {
                Gate::Skew400 => is_skew400_gate(brow),
                Gate::T2Graphs => is_t2_gate(brow),
            };
            report.push_str(&format!(
                "{:<28} N={:<8} tetris_s {bs:.4} -> {cs:.4}  ({ratio:.2}x){}\n",
                bkey.0,
                bkey.1,
                if gated { "  [gate]" } else { "" }
            ));
            if gated {
                gate_checked = true;
                if ratio > max_ratio {
                    failures.push(format!(
                        "gate: {} N={} tetris_s regressed {ratio:.2}x \
                         (> {max_ratio}x): {bs:.4}s -> {cs:.4}s",
                        bkey.0, bkey.1
                    ));
                }
                // Peak-RSS ratchet on gated rows. A reading can honestly
                // be absent (`null` off-procfs, or an old snapshot with
                // no column): such rows are *skipped*, never compared
                // against a fabricated number.
                let (brss, crss) = (
                    row_field(brow, "peak_rss_mb").and_then(|v| v.as_num()),
                    row_field(crow, "peak_rss_mb").and_then(|v| v.as_num()),
                );
                match (brss, crss) {
                    (Some(brss), Some(crss)) => {
                        if brss > 0.0 && crss / brss > max_ratio {
                            failures.push(format!(
                                "gate: {} N={} peak_rss_mb regressed {:.2}x \
                                 (> {max_ratio}x): {brss:.1} MB -> {crss:.1} MB",
                                bkey.0,
                                bkey.1,
                                crss / brss
                            ));
                        }
                    }
                    _ => report.push_str(&format!(
                        "{:<28} N={:<8} peak_rss_mb unavailable on one side — skipped\n",
                        bkey.0, bkey.1
                    )),
                }
            }
        }
        let (br, cr) = (
            row_field(brow, "resolutions").and_then(|v| v.as_num()),
            row_field(crow, "resolutions").and_then(|v| v.as_num()),
        );
        if let (Some(br), Some(cr)) = (br, cr) {
            if cr > br {
                failures.push(format!(
                    "{} N={}: resolutions grew {br} -> {cr} (the Õ-bound quantity \
                     must never regress)",
                    bkey.0, bkey.1
                ));
            }
        }
        let (bt, ct) = (
            row_field(brow, "triangles").and_then(|v| v.as_num()),
            row_field(crow, "triangles").and_then(|v| v.as_num()),
        );
        if let (Some(bt), Some(ct)) = (bt, ct) {
            if bt != ct {
                failures.push(format!(
                    "{} N={}: triangle count changed {bt} -> {ct} (listing output \
                     is deterministic; this is a correctness bug, not noise)",
                    bkey.0, bkey.1
                ));
            }
        }
    }
    if !gate_checked {
        failures.push(match gate {
            Gate::Skew400 => format!(
                "gate row (experiment with N={GATE_N} and a hash_intermediate column) \
                 missing from one of the files"
            ),
            Gate::T2Graphs => format!(
                "gate rows (t2-graphs with ≥ {T2_GATE_EDGES} edges) missing from one \
                 of the files"
            ),
        });
    }
    if failures.is_empty() {
        Ok(format!("{report}bench_compare: OK (gate ≤ {max_ratio}x)"))
    } else {
        Err(format!(
            "{report}bench_compare: FAIL\n{}",
            failures.join("\n")
        ))
    }
}

/// A `*_hist` cell parsed back into a histogram. Single-bucket CSVs
/// (e.g. `"0"` or `"8"`) serialize as JSON numbers, longer ones as
/// strings — both shapes must parse.
fn hist_field(row: &Row, key: &str) -> Option<Pow2Histogram> {
    match row_field(row, key)? {
        JsonValue::Str(s) => Pow2Histogram::from_csv(s),
        JsonValue::Num(n) => Pow2Histogram::from_csv(&format!("{}", *n as u64)),
        JsonValue::Null => None,
    }
}

/// Ledger-invariant check over a profile file (`--check-profile`): every
/// row must balance its histograms against its counters, exactly where
/// the engine guarantees exactness and within the documented envelope
/// where scheduling makes counts vary. `Ok(report)` iff every row holds
/// and at least one row was checked.
fn check_profile(rows: &[Row]) -> Result<String, String> {
    let mut report = String::new();
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for row in rows {
        if !is_profile_row(row) {
            continue;
        }
        let label = key(row).map_or_else(|| "?".to_string(), |k| format!("{} N={}", k.0, k.1));
        let num = |k: &str| row_field(row, k).and_then(|v| v.as_num());
        let mut fail = |msg: String| failures.push(format!("{label}: {msg}"));
        let (Some(resolutions), Some(kb_queries)) = (num("resolutions"), num("kb_queries")) else {
            fail("missing resolutions/kb_queries columns".to_string());
            continue;
        };
        let threads = num("threads").unwrap_or(1.0);
        // Histogram totals equal their counter columns — exact in every
        // mode (each observation site fires once per counted event).
        for (hist_col, counter_col, counter) in [
            ("depth_hist", "resolutions", resolutions),
            ("walk_hist", "kb_queries", kb_queries),
            ("repair_hist", "repairs", num("repairs").unwrap_or(-1.0)),
            ("donate_hist", "donations", num("donations").unwrap_or(-1.0)),
        ] {
            match hist_field(row, hist_col) {
                Some(h) => {
                    if h.total() as f64 != counter {
                        fail(format!(
                            "{hist_col} total {} != {counter_col} {counter}",
                            h.total()
                        ));
                    }
                }
                None => fail(format!("missing or malformed {hist_col}")),
            }
        }
        let probes = num("advances").unwrap_or(-1.0)
            + num("repairs").unwrap_or(-1.0)
            + num("full_walks").unwrap_or(-1.0);
        if threads == 1.0 {
            // The sequential ledger-balance wall: every KB query is
            // answered by exactly one of advance / repair / full walk.
            if probes != kb_queries {
                fail(format!(
                    "sequential probes (advances+repairs+full_walks = {probes}) \
                     != kb_queries {kb_queries}"
                ));
            }
            if num("donations") != Some(0.0) {
                fail("sequential row reports donations".to_string());
            }
            if num("task_spans") != Some(0.0) {
                fail("sequential row reports task spans".to_string());
            }
        } else {
            // Parallel probes hit the frozen base and the overlay shard:
            // at least one and at most two tracked probes per KB query.
            if probes > 2.0 * kb_queries || probes < kb_queries {
                fail(format!(
                    "parallel probes {probes} outside [kb_queries, 2·kb_queries] \
                     = [{kb_queries}, {}]",
                    2.0 * kb_queries
                ));
            }
            if num("task_spans").unwrap_or(0.0) < 1.0 {
                fail("parallel row reports no task spans".to_string());
            }
        }
        // The memory ledger: present, and bytes can't undercut one byte
        // per node (profile rows are preloaded, so the store is nonempty).
        match (num("mem_nodes"), num("mem_bytes")) {
            (Some(nodes), Some(bytes)) if nodes >= 1.0 && bytes >= nodes => {}
            (Some(nodes), Some(bytes)) => fail(format!(
                "memory ledger implausible: nodes={nodes} bytes={bytes}"
            )),
            _ => fail("missing mem_nodes/mem_bytes columns".to_string()),
        }
        // The attribution cell (profiles emitted since the provenance
        // work carry one; older snapshots are tolerated with a visible
        // skip line, never a silent pass).
        match row_field(row, "attr") {
            Some(_) => {
                if let Some(attr) = check_attr(row, "repairs", &mut fail) {
                    let top: Vec<String> = attr
                        .top_k(3)
                        .into_iter()
                        .map(|(i, r)| format!("{}:{}", attr.label(i), r.resolutions))
                        .collect();
                    report.push_str(&format!(
                        "{label:<44} hottest prefixes  {}\n",
                        if top.is_empty() {
                            "-".to_string()
                        } else {
                            top.join("  ")
                        }
                    ));
                }
            }
            None => report.push_str(&format!(
                "{label:<44} no attr cell (pre-attribution profile) — skipped\n"
            )),
        }
        checked += 1;
        report.push_str(&format!("{label:<44} ledger balanced\n"));
    }
    if checked == 0 {
        failures.push("no profile rows (experiment *-profile) found".to_string());
    }
    if failures.is_empty() {
        Ok(format!(
            "{report}bench_compare: OK ({checked} profile rows, all ledger invariants hold)"
        ))
    } else {
        Err(format!(
            "{report}bench_compare: FAIL\n{}",
            failures.join("\n")
        ))
    }
}

/// The attribution-ledger invariants shared by profile and provenance
/// rows: the `attr` cell parses, its per-prefix resolutions sum to the
/// row's `resolutions` column **exactly** (the attribution site is
/// adjacent to the resolution counter and worker ledgers merge
/// losslessly, so this holds in every descent mode and thread count),
/// re-resolutions never exceed resolutions (each re-derivation
/// was first a resolution), attributed inserts never exceed
/// `kb_inserts` (preload bulk builds are deliberately unattributed),
/// and repair hits never exceed the row's repair counter (a hit is a
/// repair whose window scan surfaced a containing box). Violations go
/// through `fail`; the parsed ledger comes back for reporting.
fn check_attr(
    row: &Row,
    repairs_col: &str,
    fail: &mut dyn FnMut(String),
) -> Option<AttributionLedger> {
    let num = |k: &str| row_field(row, k).and_then(|v| v.as_num());
    let Some(csv) = row_field(row, "attr").and_then(|v| v.as_str()) else {
        fail("missing attr cell".to_string());
        return None;
    };
    let Some(attr) = AttributionLedger::from_csv(csv) else {
        fail(format!("malformed attr cell: {csv}"));
        return None;
    };
    match num("resolutions") {
        Some(res) if attr.resolutions() as f64 == res => {}
        other => fail(format!(
            "attr resolutions {} != resolutions column {other:?} \
             (the prefix sum is exact in every mode)",
            attr.resolutions()
        )),
    }
    if attr.re_resolutions() > attr.resolutions() {
        fail(format!(
            "attr re_resolutions {} exceed attr resolutions {}",
            attr.re_resolutions(),
            attr.resolutions()
        ));
    }
    if let Some(kb) = num("kb_inserts") {
        if attr.inserts() as f64 > kb {
            fail(format!(
                "attr inserts {} exceed kb_inserts {kb}",
                attr.inserts()
            ));
        }
    }
    if let Some(reps) = num(repairs_col) {
        if attr.repair_hits() as f64 > reps {
            fail(format!(
                "attr repair_hits {} exceed {repairs_col} {reps}",
                attr.repair_hits()
            ));
        }
    }
    Some(attr)
}

/// Well-formedness check over a `t2_graphs --trace-out` file
/// (`--check-chrome`): a Chrome trace-event JSON array with one event
/// object per line, each a complete event (`"ph":"X"`) carrying string
/// `name`/`cat` and numeric `ts`/`dur`/`pid`/`tid` — every line is
/// re-parsed with the same flat-object parser the snapshots use.
/// `Ok(report)` iff every event holds and at least one event exists.
fn check_chrome(text: &str) -> Result<String, String> {
    let mut failures = Vec::new();
    let trimmed = text.trim();
    if !(trimmed.starts_with('[') && trimmed.ends_with(']')) {
        failures.push("file is not a JSON array".to_string());
    }
    let mut events = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        let mut fail = |msg: String| failures.push(format!("line {}: {msg}", i + 1));
        let Some(ev) = parse_jsonl_row(line) else {
            fail("not a flat JSON event object".to_string());
            continue;
        };
        events += 1;
        for f in ["name", "cat", "ph"] {
            if row_field(&ev, f).and_then(|v| v.as_str()).is_none() {
                fail(format!("missing string field {f}"));
            }
        }
        match row_field(&ev, "ph").and_then(|v| v.as_str()) {
            Some("X") | None => {}
            Some(ph) => fail(format!("ph {ph:?} is not a complete event")),
        }
        for f in ["ts", "dur", "pid", "tid"] {
            if row_field(&ev, f).and_then(|v| v.as_num()).is_none() {
                fail(format!("missing numeric field {f}"));
            }
        }
    }
    if events == 0 {
        failures.push("no trace events found".to_string());
    }
    if failures.is_empty() {
        Ok(format!(
            "bench_compare: OK ({events} chrome trace events, all well-formed)"
        ))
    } else {
        Err(format!("bench_compare: FAIL\n{}", failures.join("\n")))
    }
}

/// Fields a provenance row must carry to replay its run: the workload
/// half stamped by `t2_graphs` (generator, seed, snapshot) and the
/// config + counter-ledger half stamped by `plan::PlanRun::provenance`.
/// Older rows may also carry the removed `backend`/`shards` fields; extra
/// fields never fail a row.
const REPLAY_FIELDS: [&str; 19] = [
    "graph",
    "edges",
    "seed",
    "snapshot",
    "query",
    "sao",
    "width",
    "input_tuples",
    "descent",
    "threads",
    "preload",
    "obs",
    "preload_s",
    "solve_s",
    "resolutions",
    "kb_queries",
    "kb_inserts",
    "outputs",
    "attr",
];

/// Replay-record check over a `t2_graphs --provenance` file
/// (`--check-provenance`): every row must identify itself as
/// `t2-provenance`, carry all [`REPLAY_FIELDS`], and its attribution
/// ledger must balance its own counter columns (provenance sweeps
/// always run with the observer on, so the cell is mandatory here —
/// unlike profiles). `Ok(report)` iff every row holds and at least one
/// row was checked.
fn check_provenance(rows: &[Row]) -> Result<String, String> {
    let mut report = String::new();
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let s = |k: &str| {
            row_field(row, k)
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string()
        };
        let n = |k: &str| row_field(row, k).and_then(|v| v.as_num()).unwrap_or(0.0);
        let label = format!(
            "row {} {}/{} t{}",
            i + 1,
            s("query"),
            s("graph"),
            n("threads"),
        );
        let mut fail = |msg: String| failures.push(format!("{label}: {msg}"));
        if row_field(row, "experiment").and_then(|v| v.as_str()) != Some("t2-provenance") {
            fail("experiment is not t2-provenance".to_string());
            continue;
        }
        for f in REPLAY_FIELDS {
            if row_field(row, f).is_none() {
                fail(format!("missing replay field {f}"));
            }
        }
        check_attr(row, "probe_repairs", &mut fail);
        checked += 1;
        report.push_str(&format!("{label:<44} replayable\n"));
    }
    if checked == 0 {
        failures.push("no t2-provenance rows found".to_string());
    }
    if failures.is_empty() {
        Ok(format!(
            "{report}bench_compare: OK ({checked} provenance rows, all replayable)"
        ))
    } else {
        Err(format!(
            "{report}bench_compare: FAIL\n{}",
            failures.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(text: &str) -> Vec<Row> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| parse_jsonl_row(l).unwrap())
            .collect()
    }

    const BASE: &str = r#"
{"experiment":"table1","N":2403,"Z":1201,"tetris_s":0.03,"resolutions":18033,"hash_intermediate":161201}
{"experiment":"table1","N":1203,"Z":601,"tetris_s":0.015,"resolutions":9033,"hash_intermediate":40601}
"#;

    const T2_BASE: &str = r#"
{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000}
{"experiment":"t2-graphs","graph":"random","edges":100000,"N":300000,"triangles":99,"tetris_s":1.2,"resolutions":800000}
{"experiment":"t2-graphs","graph":"skewed","edges":1000,"N":3000,"triangles":40,"tetris_s":0.001,"resolutions":9000}
"#;

    #[test]
    fn passes_when_faster_and_same_resolutions() {
        let cand = rows(
            r#"{"experiment":"table1","N":2403,"Z":1201,"tetris_s":0.01,"resolutions":18033,"hash_intermediate":161201}"#,
        );
        assert!(compare(&rows(BASE), &cand, 2.0, Gate::Skew400).is_ok());
    }

    #[test]
    fn fails_on_gate_time_regression() {
        let cand = rows(
            r#"{"experiment":"table1","N":2403,"Z":1201,"tetris_s":0.09,"resolutions":18033,"hash_intermediate":161201}"#,
        );
        let err = compare(&rows(BASE), &cand, 2.0, Gate::Skew400).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn fails_on_resolution_growth() {
        let cand = rows(
            r#"{"experiment":"table1","N":2403,"Z":1201,"tetris_s":0.01,"resolutions":20000,"hash_intermediate":161201}"#,
        );
        let err = compare(&rows(BASE), &cand, 2.0, Gate::Skew400).unwrap_err();
        assert!(err.contains("resolutions grew"), "{err}");
    }

    #[test]
    fn fails_when_gate_row_missing() {
        let cand = rows(
            r#"{"experiment":"table1","N":1203,"Z":601,"tetris_s":0.01,"resolutions":9033,"hash_intermediate":40601}"#,
        );
        let err = compare(&rows(BASE), &cand, 2.0, Gate::Skew400).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn t2_gate_passes_within_ratio_and_keys_by_graph_kind() {
        // Candidate has only the 10⁵ rows (the CI smoke subset); the two
        // kinds share N so the graph name must disambiguate the keys.
        let cand = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.9,"resolutions":900000}
{"experiment":"t2-graphs","graph":"random","edges":100000,"N":300000,"triangles":99,"tetris_s":1.0,"resolutions":800000}
"#,
        );
        let report = compare(&rows(T2_BASE), &cand, 2.0, Gate::T2Graphs).unwrap();
        assert!(report.contains("t2-graphs:skewed"), "{report}");
    }

    #[test]
    fn query_column_keys_zoo_rows_apart_from_triangle_rows() {
        // A 4-cycle row shares graph/N with the baseline triangle row but
        // must NOT be compared against it (its output count differs);
        // an explicit query="triangle" row must keep the pre-zoo key and
        // still gate against the query-less baseline.
        let cand = rows(
            r#"
{"experiment":"t2-graphs","query":"triangle","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.0,"resolutions":900000}
{"experiment":"t2-graphs","query":"4-cycle","graph":"skewed","edges":100000,"N":300000,"triangles":77777,"tetris_s":1.0,"resolutions":12345}
"#,
        );
        let report = compare(&rows(T2_BASE), &cand, 2.0, Gate::T2Graphs).unwrap();
        assert!(report.contains("t2-graphs:skewed"), "{report}");
        // And when the baseline itself carries the zoo row, counts gate.
        let base2 = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000}
{"experiment":"t2-graphs","query":"4-cycle","graph":"skewed","edges":100000,"N":300000,"triangles":77777,"tetris_s":1.5,"resolutions":12345}
"#,
        );
        let bad = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.0,"resolutions":900000}
{"experiment":"t2-graphs","query":"4-cycle","graph":"skewed","edges":100000,"N":300000,"triangles":77778,"tetris_s":1.0,"resolutions":12345}
"#,
        );
        let err = compare(&base2, &bad, 2.0, Gate::T2Graphs).unwrap_err();
        assert!(err.contains("triangle count changed"), "{err}");
    }

    #[test]
    fn t2_gate_fails_on_triangle_mismatch() {
        let cand = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":420,"tetris_s":1.0,"resolutions":900000}"#,
        );
        let err = compare(&rows(T2_BASE), &cand, 2.0, Gate::T2Graphs).unwrap_err();
        assert!(err.contains("triangle count changed"), "{err}");
    }

    #[test]
    fn t2_gate_fails_on_wall_time_regression_of_big_rows_only() {
        // The 10³ row is 10x slower but ungated; the 10⁵ row regressing
        // past the ratio is what fails.
        let cand = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":3.8,"resolutions":900000}
{"experiment":"t2-graphs","graph":"skewed","edges":1000,"N":3000,"triangles":40,"tetris_s":0.01,"resolutions":9000}
"#,
        );
        let err = compare(&rows(T2_BASE), &cand, 2.0, Gate::T2Graphs).unwrap_err();
        assert!(err.contains("gate: t2-graphs:skewed N=300000"), "{err}");
        assert!(!err.contains("N=3000 tetris_s regressed"), "{err}");
    }

    #[test]
    fn threads_column_keys_parallel_rows_separately() {
        // Sequential and 4-thread rows share (experiment:graph, N); the
        // threads column must keep them distinct, and a parallel row
        // without a numeric resolutions cell must not trip the
        // resolutions-growth check.
        let base = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","threads":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000}
{"experiment":"t2-graphs","graph":"skewed","threads":4,"edges":100000,"N":300000,"triangles":421,"tetris_s":0.5,"resolutions":"-"}
"#,
        );
        let cand = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","threads":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000}
{"experiment":"t2-graphs","graph":"skewed","threads":4,"edges":100000,"N":300000,"triangles":421,"tetris_s":0.6,"resolutions":"-"}
"#,
        );
        let report = compare(&base, &cand, 2.0, Gate::T2Graphs).unwrap();
        assert!(report.contains("t2-graphs:skewed:t1"), "{report}");
        assert!(report.contains("t2-graphs:skewed:t4"), "{report}");
        // A 4-thread wall-time regression past the ratio still fails.
        let slow = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","threads":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000}
{"experiment":"t2-graphs","graph":"skewed","threads":4,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.3,"resolutions":"-"}
"#,
        );
        let err = compare(&base, &slow, 2.0, Gate::T2Graphs).unwrap_err();
        assert!(err.contains("t2-graphs:skewed:t4"), "{err}");
    }

    #[test]
    fn backend_column_keys_ab_rows_separately() {
        // Snapshot binary and radix rows share (experiment:graph, N,
        // threads); the backend column must keep them from colliding —
        // without it the first match would gate a radix row against a
        // binary one (or vice versa) silently.
        let base = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","backend":"binary","threads":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000}
{"experiment":"t2-graphs","graph":"skewed","backend":"radix","threads":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.0,"resolutions":900000}
"#,
        );
        let cand = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","backend":"binary","threads":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000}
{"experiment":"t2-graphs","graph":"skewed","backend":"radix","threads":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.1,"resolutions":900000}
"#,
        );
        let report = compare(&base, &cand, 2.0, Gate::T2Graphs).unwrap();
        assert!(report.contains("t2-graphs:skewed:t1"), "{report}");
        assert!(report.contains("t2-graphs:skewed:radix:t1"), "{report}");
        // A radix-only regression fails only the radix key.
        let slow = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","backend":"binary","threads":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000}
{"experiment":"t2-graphs","graph":"skewed","backend":"radix","threads":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":2.5,"resolutions":900000}
"#,
        );
        let err = compare(&base, &slow, 2.0, Gate::T2Graphs).unwrap_err();
        assert!(err.contains("gate: t2-graphs:skewed:radix:t1"), "{err}");
        assert!(!err.contains("gate: t2-graphs:skewed:t1"), "{err}");
        // Rows without a backend column (fresh sweeps, and snapshots
        // older than the A/B) key as binary rows, so they gate against
        // the snapshot's binary rows and never its radix ones.
        let fresh = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","threads":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.6,"resolutions":900000}"#,
        );
        assert_eq!(key(&fresh[0]).unwrap().0, "t2-graphs:skewed:t1");
        assert_eq!(key(&fresh[0]), key(&base[0]));
        let report = compare(&base, &fresh, 2.0, Gate::T2Graphs).unwrap();
        assert!(report.contains("tetris_s 1.5000 -> 1.6000"), "{report}");
        assert!(!report.contains("radix"), "{report}");
    }

    #[test]
    fn shards_column_folds_in_only_when_not_one() {
        // `shards=1` rows must keep pre-sharding keys so they still
        // match old snapshots; sharded rows get their own key.
        let one = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","threads":1,"shards":1,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000}"#,
        );
        assert_eq!(key(&one[0]).unwrap().0, "t2-graphs:skewed:t1");
        let four = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","threads":1,"shards":4,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000}"#,
        );
        assert_eq!(key(&four[0]).unwrap().0, "t2-graphs:skewed:t1:s4");
        // And the sharded row gates against its own baseline row.
        let cand = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","threads":1,"shards":4,"edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000}"#,
        );
        assert!(compare(&four, &cand, 2.0, Gate::T2Graphs).is_ok());
    }

    #[test]
    fn null_rss_rows_are_skipped_not_ratcheted() {
        // A candidate measured off-procfs reports `peak_rss_mb:null`;
        // the RSS ratchet must skip the row (and say so), not compare
        // against a coerced 0 or fail the gate.
        let base = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000,"peak_rss_mb":120.5}"#,
        );
        let cand = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000,"peak_rss_mb":null}"#,
        );
        let report = compare(&base, &cand, 2.0, Gate::T2Graphs).unwrap();
        assert!(report.contains("peak_rss_mb unavailable"), "{report}");
        // Symmetrically for a baseline predating the column.
        let old_base = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000}"#,
        );
        let new_cand = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000,"peak_rss_mb":130.0}"#,
        );
        assert!(compare(&old_base, &new_cand, 2.0, Gate::T2Graphs).is_ok());
    }

    #[test]
    fn rss_regression_on_a_gated_row_fails() {
        let base = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000,"peak_rss_mb":100.0}"#,
        );
        let cand = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000,"peak_rss_mb":250.0}"#,
        );
        let err = compare(&base, &cand, 2.0, Gate::T2Graphs).unwrap_err();
        assert!(err.contains("peak_rss_mb regressed"), "{err}");
    }

    #[test]
    fn t2_gate_requires_a_big_row() {
        let cand = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","edges":1000,"N":3000,"triangles":40,"tetris_s":0.001,"resolutions":9000}"#,
        );
        let err = compare(&rows(T2_BASE), &cand, 2.0, Gate::T2Graphs).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    /// A balanced sequential profile row and a balanced parallel one,
    /// both carrying balanced attribution cells (Σ prefix resolutions
    /// == resolutions, inserts ≤ kb_inserts, repair hits ≤ repairs).
    const PROFILE_OK: &str = r#"
{"experiment":"t2-profile","query":"triangle","graph":"skewed","threads":1,"edges":100000,"N":300000,"preload_s":0.5,"solve_s":1.0,"task_spans":0,"task_secs":0,"resolutions":4,"kb_queries":8,"kb_inserts":5,"advances":5,"repairs":2,"full_walks":1,"donations":0,"depth_hist":"0,1,3","walk_hist":"4,2,2","repair_hist":"0,2","donate_hist":0,"mem_nodes":10,"mem_bytes":160,"mem_depth":5,"attr":"k8|3:2,1,2,0|s:2,0,1,1"}
{"experiment":"t2-profile","query":"triangle","graph":"skewed","threads":4,"edges":100000,"N":300000,"preload_s":0.5,"solve_s":0.4,"task_spans":3,"task_secs":0.9,"resolutions":4,"kb_queries":8,"kb_inserts":5,"advances":9,"repairs":0,"full_walks":2,"donations":2,"depth_hist":"0,1,3","walk_hist":"4,2,2","repair_hist":0,"donate_hist":2,"mem_nodes":10,"mem_bytes":160,"mem_depth":5,"attr":"k8|7:4,1,3,0"}
"#;

    #[test]
    fn check_profile_passes_on_balanced_rows() {
        let report = check_profile(&rows(PROFILE_OK)).unwrap();
        assert!(report.contains("2 profile rows"), "{report}");
        // Sequential and parallel rows key apart via the threads column.
        assert!(report.contains("t2-profile:skewed:t1"), "{report}");
        assert!(report.contains("t2-profile:skewed:t4"), "{report}");
        // The attribution report names each row's hottest prefixes, in
        // k-bit label form, hottest first.
        assert!(report.contains("hottest prefixes"), "{report}");
        assert!(report.contains("00000011:2"), "{report}");
        assert!(report.contains("short:2"), "{report}");
        assert!(report.contains("00000111:4"), "{report}");
    }

    #[test]
    fn check_profile_fails_on_unbalanced_or_malformed_attr() {
        // Prefix resolutions sum to 3 but the counter column says 4.
        let unbalanced = rows(
            r#"{"experiment":"t2-profile","graph":"skewed","threads":1,"N":300000,"resolutions":4,"kb_queries":8,"kb_inserts":5,"advances":5,"repairs":2,"full_walks":1,"donations":0,"depth_hist":"0,1,3","walk_hist":"4,2,2","repair_hist":"0,2","donate_hist":0,"mem_nodes":10,"mem_bytes":160,"attr":"k8|3:2,0,2,0|s:1,0,1,0"}"#,
        );
        let err = check_profile(&unbalanced).unwrap_err();
        assert!(err.contains("attr resolutions 3"), "{err}");
        // A cell that does not parse is a failure, not a silent skip.
        let malformed = rows(
            r#"{"experiment":"t2-profile","graph":"skewed","threads":1,"N":300000,"resolutions":4,"kb_queries":8,"advances":5,"repairs":2,"full_walks":1,"donations":0,"depth_hist":"0,1,3","walk_hist":"4,2,2","repair_hist":"0,2","donate_hist":0,"mem_nodes":10,"mem_bytes":160,"attr":"q9|nope"}"#,
        );
        let err = check_profile(&malformed).unwrap_err();
        assert!(err.contains("malformed attr cell"), "{err}");
        // Companion counters are bounded by their engine columns.
        let excess = rows(
            r#"{"experiment":"t2-profile","graph":"skewed","threads":1,"N":300000,"resolutions":4,"kb_queries":8,"kb_inserts":2,"advances":5,"repairs":1,"full_walks":2,"donations":0,"depth_hist":"0,1,3","walk_hist":"4,2,2","repair_hist":"0,1","donate_hist":0,"mem_nodes":10,"mem_bytes":160,"attr":"k8|3:4,0,3,2"}"#,
        );
        let err = check_profile(&excess).unwrap_err();
        assert!(err.contains("attr inserts 3 exceed kb_inserts 2"), "{err}");
        assert!(err.contains("attr repair_hits 2 exceed repairs 1"), "{err}");
    }

    #[test]
    fn check_profile_tolerates_missing_attr_with_a_visible_skip() {
        // Pre-attribution profile rows (older snapshots) have no attr
        // cell: the row still ledger-checks, and the report says the
        // attribution was skipped rather than silently passing.
        let old = rows(
            r#"{"experiment":"t2-profile","graph":"skewed","threads":1,"N":300000,"task_spans":0,"resolutions":4,"kb_queries":8,"advances":5,"repairs":2,"full_walks":1,"donations":0,"depth_hist":"0,1,3","walk_hist":"4,2,2","repair_hist":"0,2","donate_hist":0,"mem_nodes":10,"mem_bytes":160}"#,
        );
        let report = check_profile(&old).unwrap();
        assert!(report.contains("no attr cell"), "{report}");
    }

    #[test]
    fn check_profile_fails_on_histogram_counter_mismatch() {
        // depth_hist totals 3 but resolutions says 4.
        let bad = rows(
            r#"{"experiment":"t2-profile","graph":"skewed","threads":1,"N":300000,"resolutions":4,"kb_queries":8,"advances":5,"repairs":2,"full_walks":1,"donations":0,"depth_hist":"0,1,2","walk_hist":"4,2,2","repair_hist":"0,2","donate_hist":0,"mem_nodes":10,"mem_bytes":160}"#,
        );
        let err = check_profile(&bad).unwrap_err();
        assert!(err.contains("depth_hist total 3 != resolutions 4"), "{err}");
    }

    #[test]
    fn check_profile_fails_on_sequential_probe_imbalance() {
        // advances+repairs+full_walks = 7 != kb_queries = 8.
        let bad = rows(
            r#"{"experiment":"t2-profile","graph":"skewed","threads":1,"N":300000,"resolutions":4,"kb_queries":8,"advances":4,"repairs":2,"full_walks":1,"donations":0,"depth_hist":"0,1,3","walk_hist":"4,2,2","repair_hist":"0,2","donate_hist":0,"mem_nodes":10,"mem_bytes":160}"#,
        );
        let err = check_profile(&bad).unwrap_err();
        assert!(err.contains("!= kb_queries"), "{err}");
    }

    #[test]
    fn check_profile_holds_old_sharded_rows_to_exact_balance() {
        // A sequential row from an older snapshot that still carries a
        // `shards` column gets no slack: a 7-probe deficit fails exactly
        // like it does on a fresh row, and so does a surplus.
        for probes in [r#""advances":4"#, r#""advances":7"#] {
            let row = rows(&format!(
                r#"{{"experiment":"t2-profile","graph":"skewed","threads":1,"shards":4,"N":300000,"task_spans":0,"resolutions":4,"kb_queries":8,{probes},"repairs":2,"full_walks":1,"donations":0,"depth_hist":"0,1,3","walk_hist":"4,2,2","repair_hist":"0,2","donate_hist":0,"mem_nodes":10,"mem_bytes":160}}"#
            ));
            let err = check_profile(&row).unwrap_err();
            assert!(err.contains("!= kb_queries 8"), "{err}");
        }
    }

    #[test]
    fn check_profile_bounds_parallel_probes_and_requires_task_spans() {
        // 17 probes > 2 × 8 kb_queries, and no task spans recorded.
        let bad = rows(
            r#"{"experiment":"t2-profile","graph":"skewed","threads":4,"N":300000,"task_spans":0,"resolutions":4,"kb_queries":8,"advances":15,"repairs":0,"full_walks":2,"donations":0,"depth_hist":"0,1,3","walk_hist":"4,2,2","repair_hist":0,"donate_hist":0,"mem_nodes":10,"mem_bytes":160}"#,
        );
        let err = check_profile(&bad).unwrap_err();
        assert!(err.contains("outside [kb_queries"), "{err}");
        assert!(err.contains("no task spans"), "{err}");
    }

    #[test]
    fn check_profile_requires_at_least_one_row() {
        // Non-profile rows don't count.
        let err = check_profile(&rows(T2_BASE)).unwrap_err();
        assert!(err.contains("no profile rows"), "{err}");
    }

    #[test]
    fn profile_rows_are_skipped_not_ratcheted() {
        // A profile row 10x slower with grown "resolutions" (metrics-on,
        // scheduling-dependent) must not fail the gate — it is skipped
        // with a report line, like a null-RSS reading. The t2-graphs row
        // still gates normally.
        let base = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000}
{"experiment":"t2-profile","graph":"skewed","threads":4,"edges":100000,"N":300000,"tetris_s":1.5,"resolutions":900000}
"#,
        );
        let cand = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000}
{"experiment":"t2-profile","graph":"skewed","threads":4,"edges":100000,"N":300000,"tetris_s":15.0,"resolutions":950000}
"#,
        );
        let report = compare(&base, &cand, 2.0, Gate::T2Graphs).unwrap();
        assert!(report.contains("not ratcheted"), "{report}");
        // Same when the candidate predates profile rows entirely (the
        // skip happens before the candidate lookup).
        let old_cand = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000}"#,
        );
        let report = compare(&base, &old_cand, 2.0, Gate::T2Graphs).unwrap();
        assert!(report.contains("not ratcheted"), "{report}");
    }

    #[test]
    fn provenance_rows_are_skipped_not_ratcheted() {
        // A stray provenance append (replay metadata, not a benchmark)
        // must never gate — skipped with a visible line, and the real
        // t2-graphs row still gates normally.
        let base = rows(
            r#"
{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.5,"resolutions":900000}
{"experiment":"t2-provenance","graph":"skewed","edges":100000,"seed":48879,"query":"triangle","backend":"binary","threads":1,"resolutions":900000}
"#,
        );
        let cand = rows(
            r#"{"experiment":"t2-graphs","graph":"skewed","edges":100000,"N":300000,"triangles":421,"tetris_s":1.4,"resolutions":900000}"#,
        );
        let report = compare(&base, &cand, 2.0, Gate::T2Graphs).unwrap();
        assert!(report.contains("replay metadata"), "{report}");
    }

    #[test]
    fn check_chrome_accepts_the_exporters_output() {
        // Round-trip: build a trace through obs::chrome and verify the
        // emitted JSON with the same parser CI uses (pins the
        // one-event-per-line contract the obs module documents).
        use obs::{chrome::ChromeTrace, Ledger, ObsSink, Phase};
        let mut l = Ledger::new();
        l.record_span(Phase::Preload, 0.25);
        l.record_span(Phase::Solve, 1.5);
        l.record_span(Phase::Task, 0.75);
        let mut ct = ChromeTrace::new();
        ct.push_run("triangle/skewed/binaryx1t2@100000", &l, 1);
        let report = check_chrome(&ct.to_json()).unwrap();
        assert!(report.contains("3 chrome trace events"), "{report}");
    }

    #[test]
    fn check_chrome_fails_on_malformed_or_empty_traces() {
        // An empty array is loadable but useless — a traced sweep that
        // recorded nothing is a failure, not a pass.
        let err = check_chrome("[\n]\n").unwrap_err();
        assert!(err.contains("no trace events"), "{err}");
        // A non-complete phase or a missing lane field fails by line.
        let err = check_chrome(
            "[\n{\"name\":\"a\",\"cat\":\"phase\",\"ph\":\"B\",\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":0},\n{\"name\":\"b\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":0}\n]\n",
        )
        .unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("not a complete event"),
            "{err}"
        );
        assert!(
            err.contains("line 3") && err.contains("missing numeric field dur"),
            "{err}"
        );
        // Not an array at all.
        let err = check_chrome("{\"name\":\"a\"}\n").unwrap_err();
        assert!(err.contains("not a JSON array"), "{err}");
    }

    /// A replayable provenance row: every [`REPLAY_FIELDS`] entry plus a
    /// balanced attribution cell.
    const PROVENANCE_OK: &str = r#"
{"experiment":"t2-provenance","graph":"skewed","edges":100000,"seed":48879,"snapshot":"-","query":"triangle","sao":"A,B,C","width":20,"input_tuples":300000,"descent":"incremental","threads":1,"preload":1,"obs":"true","preload_s":0.5,"solve_s":1.0,"resolutions":4,"kb_queries":8,"kb_inserts":5,"probe_repairs":2,"outputs":421,"attr":"k8|3:2,1,2,0|s:2,0,1,1"}
"#;

    #[test]
    fn check_provenance_passes_on_replayable_rows() {
        let report = check_provenance(&rows(PROVENANCE_OK)).unwrap();
        assert!(report.contains("1 provenance rows"), "{report}");
        assert!(report.contains("triangle/skewed t1"), "{report}");
        // Older rows still carrying the removed backend/shards fields
        // stay replayable.
        let old = rows(&PROVENANCE_OK.replace(
            "\"descent\"",
            "\"backend\":\"binary\",\"shards\":1,\"descent\"",
        ));
        assert!(row_field(&old[0], "backend").is_some());
        assert!(check_provenance(&old).is_ok());
    }

    #[test]
    fn check_provenance_fails_on_missing_fields_or_unbalanced_attr() {
        // Strip the generator seed: the run is no longer replayable.
        let no_seed = rows(&PROVENANCE_OK.replace("\"seed\":48879,", ""));
        let err = check_provenance(&no_seed).unwrap_err();
        assert!(err.contains("missing replay field seed"), "{err}");
        // Unlike profiles, provenance sweeps always run with the
        // observer on — a missing attr cell is a failure here.
        let no_attr = rows(&PROVENANCE_OK.replace(",\"attr\":\"k8|3:2,1,2,0|s:2,0,1,1\"", ""));
        let err = check_provenance(&no_attr).unwrap_err();
        assert!(err.contains("missing replay field attr"), "{err}");
        assert!(err.contains("missing attr cell"), "{err}");
        // An attribution ledger that does not balance its own counters.
        let unbalanced = rows(&PROVENANCE_OK.replace("\"resolutions\":4", "\"resolutions\":5"));
        let err = check_provenance(&unbalanced).unwrap_err();
        assert!(err.contains("attr resolutions 4"), "{err}");
        // A file of non-provenance rows has nothing to certify.
        let err = check_provenance(&rows(T2_BASE)).unwrap_err();
        assert!(err.contains("experiment is not t2-provenance"), "{err}");
    }
}
