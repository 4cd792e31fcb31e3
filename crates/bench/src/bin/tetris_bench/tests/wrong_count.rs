//! A child given a wrong ground truth must fail every rep, say so in its
//! row, and exit non-zero.

use std::process::Command;

#[test]
fn a_wrong_ground_truth_exits_non_zero() {
    let dir = std::env::temp_dir().join(format!("tetris_bench-wrong-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph = dir.join("graph.tsv");
    // One triangle on four vertices; the child is told there are two.
    std::fs::write(
        &graph,
        "# tetris-graph vertices=4 edges=4\n0\t1\n1\t2\n0\t2\n2\t3\n",
    )
    .expect("write graph");
    let out = Command::new(env!("CARGO_BIN_EXE_tetris_bench"))
        .args(["child", "--workload", "tri-skewed-200k", "--expect", "2"])
        .args(["--seconds", "0", "--trace", "0", "--input"])
        .arg(&graph)
        .output()
        .expect("the child runs");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = bench::parse_jsonl_row(stdout.lines().last().expect("a result row")).expect("parses");
    let failed_share = bench::row_field(&row, "failed_share").and_then(|v| v.as_num());
    assert_eq!(failed_share, Some(1.0));
}
