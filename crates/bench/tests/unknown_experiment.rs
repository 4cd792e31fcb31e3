//! The harness binaries reject an experiment name they do not know:
//! exit code 2 and a usage line naming the valid experiments, instead
//! of printing a bare header and exiting 0.

use std::process::Command;

#[test]
fn harness_binaries_exit_2_on_an_unknown_experiment() {
    for (bin, valid) in [
        (env!("CARGO_BIN_EXE_table1"), "t1-agm"),
        (env!("CARGO_BIN_EXE_fig2"), "f2-tree-agm"),
        (env!("CARGO_BIN_EXE_figures"), "trace"),
    ] {
        let out = Command::new(bin)
            .arg("no-such-experiment")
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        assert_eq!(out.status.code(), Some(2), "{bin}");
        assert!(out.stdout.is_empty(), "{bin} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{bin}: {stderr}");
        assert!(stderr.contains(valid), "{bin} must list {valid}: {stderr}");
    }
}
