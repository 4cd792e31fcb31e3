//! Compare a fresh bench JSONL sweep against a checked-in snapshot and
//! fail on wall-clock regressions — the CI gate for the engine's
//! constant-factor work (EXPERIMENTS.md §5) and for the large-graph tier
//! (EXPERIMENTS.md §6).
//!
//! Usage:
//!
//! ```text
//! bench_compare <baseline.jsonl> <candidate.jsonl> [--max-ratio R] [--gate skew400|t2-graphs]
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

use bench::{parse_jsonl_row, row_field, JsonValue};

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
        } else {
            paths.push(a.clone());
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: bench_compare <baseline.jsonl> <candidate.jsonl> \
             [--max-ratio R] [--gate skew400|t2-graphs]"
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
        let Some(bkey) = key(brow) else { continue };
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
}
