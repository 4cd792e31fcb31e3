//! `tetris_bench`: one query on one input, timed end to end and layer by
//! layer, checked against LFTJ and an independent ground truth.
//!
//! ```text
//! tetris_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--jsonl FILE]
//! tetris_bench compare <runsA.jsonl…> -- <runsB.jsonl…>
//! ```
//!
//! A run generates the workload's input from the seed, computes its
//! ground truth, saves the input, and re-executes itself as a child that
//! sees only the saved files and the expected count (so the child's peak
//! memory is the workload's own). The child times reps of the pipeline
//! for `--seconds` and reports medians. The parent prints every metric by
//! name with its unit, then, as the last line, one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. It exits 1 when any output was wrong. See README.md.

mod child;
mod compare;
mod metrics;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use bench::{parse_jsonl_row, row_field, JsonValue, Table};

const USAGE: &str = "usage: tetris_bench --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--jsonl FILE]\n       \
                     tetris_bench compare <runsA.jsonl…> -- <runsB.jsonl…>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("child") => child_main(&args[1..]),
        _ => parent_main(&args),
    };
    std::process::exit(code);
}

/// `--key value` pairs, in order (a key may repeat).
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    args.chunks(2)
        .map(|kv| match kv {
            [k, v] if known.contains(&k.trim_start_matches("--")) && k.starts_with("--") => {
                Ok((&k[2..], v.as_str()))
            }
            _ => Err(format!("unexpected argument {:?}", kv[0])),
        })
        .collect()
}

fn flag<'a>(f: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    f.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn parse<T: std::str::FromStr>(f: &[(&str, &str)], key: &str) -> Result<Option<T>, String> {
    flag(f, key)
        .map(|v| v.parse().map_err(|_| format!("bad --{key} {v:?}")))
        .transpose()
}

fn usage(msg: &str) -> i32 {
    eprintln!("tetris_bench: {msg}\n{USAGE}");
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    2
}

/// The command line of a run, checked.
struct RunArgs {
    workload: workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    jsonl: Option<PathBuf>,
}

fn run_args(args: &[String]) -> Result<RunArgs, String> {
    let f = flags(args, &["workload", "seed", "seconds", "trace", "jsonl"])?;
    let name = flag(&f, "workload").ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = parse::<f64>(&f, "seconds")?.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("bad --seconds {seconds}"));
    }
    let trace = match flag(&f, "trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace {t:?} (expected 0 or 1)")),
    };
    Ok(RunArgs {
        workload,
        seed: parse(&f, "seed")?.unwrap_or(workload.default_seed),
        seconds,
        trace,
        jsonl: flag(&f, "jsonl").map(PathBuf::from),
    })
}

fn parent_main(args: &[String]) -> i32 {
    let a = match run_args(args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    // Inputs live beside the executable, inside the build directory.
    let exe = std::env::current_exe().expect("the running executable has a path");
    let dir = exe
        .parent()
        .expect("the executable sits in a directory")
        .join(format!("tetris_bench-work-{}", std::process::id()));
    let child = std::fs::create_dir_all(&dir)
        .and_then(|()| a.workload.generate(a.seed, &dir))
        .and_then(|(inputs, truth)| {
            println!(
                "tetris_bench {} seed={} seconds={} trace={}: ground truth {truth} tuples",
                a.workload.name,
                a.seed,
                a.seconds,
                u8::from(a.trace)
            );
            run_child(&exe, &a, &inputs, truth)
        });
    let _ = std::fs::remove_dir_all(&dir);
    let (row, child_ok) = match child {
        Ok(x) => x,
        Err(e) => {
            eprintln!("tetris_bench: {e}");
            return 1;
        }
    };
    report(&a, row, child_ok)
}

/// Run the child to completion; its last stdout line is its result row.
fn run_child(
    exe: &Path,
    a: &RunArgs,
    inputs: &[PathBuf],
    truth: u64,
) -> std::io::Result<(Option<compare::Row>, bool)> {
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", a.workload.name])
        .args(["--expect", &truth.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }]);
    for p in inputs {
        cmd.arg("--input").arg(p);
    }
    let out = cmd.stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout.lines().last().and_then(parse_jsonl_row);
    Ok((row, out.status.success()))
}

/// Print the human-readable table and the final JSON line; return the
/// exit code.
fn report(a: &RunArgs, row: Option<compare::Row>, child_ok: bool) -> i32 {
    let Some(row) = row else {
        eprintln!("tetris_bench: the child ended without a result row");
        println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
        return 1;
    };
    let num = |k: &str| row_field(&row, k).and_then(JsonValue::as_num);
    let attempted = num("attempted").unwrap_or(0.0) as u64;
    let failed = num("failed").unwrap_or(0.0) as u64;
    let correct = child_ok && num("correct") == Some(1.0);

    let mut table = Table::new(&["metric", "value", "unit"]);
    table.row(&[
        "failed_share".into(),
        format!("{failed}/{attempted}"),
        "reps".into(),
    ]);
    for (k, v) in &row {
        if let (Some(unit), Some(v)) = (metrics::unit_of(k), v.as_num()) {
            let v = if v.fract() == 0.0 {
                format!("{v:.0}")
            } else {
                format!("{v:.6}")
            };
            table.row(&[k.clone(), v, unit.into()]);
        }
    }
    print!("{}", table.render());

    if let Some(path) = &a.jsonl {
        let mut cells = vec![
            ("workload".to_string(), a.workload.name.to_string()),
            ("seed".to_string(), a.seed.to_string()),
            ("trace".to_string(), u8::from(a.trace).to_string()),
        ];
        cells.extend(
            row.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_num()?.to_string()))),
        );
        if let Err(e) = append(path, &jsonl_line(&cells)) {
            eprintln!("tetris_bench: {}: {e}", path.display());
        }
    }

    let wanted: &[metrics::Metric] = if a.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let fields: Vec<String> = wanted
        .iter()
        .map(|m| {
            let v = num(m.name).filter(|v| v.is_finite());
            let v = v.map_or("null".to_string(), |v| v.to_string());
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        fields.join(", ")
    );
    i32::from(!correct)
}

fn append(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(text.as_bytes())
}

/// The child side of the protocol: run the job, print one result row,
/// exit 1 when an output was wrong.
fn child_main(args: &[String]) -> i32 {
    let job = match child_job(args) {
        Ok(j) => j,
        Err(e) => return usage(&e),
    };
    let r = child::run(&job);
    print!("{}", child_row(&r));
    i32::from(!r.correct)
}

fn child_job(args: &[String]) -> Result<child::Job, String> {
    let f = flags(args, &["workload", "expect", "seconds", "trace", "input"])?;
    let name = flag(&f, "workload").ok_or("--workload is required")?;
    Ok(child::Job {
        workload: workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        inputs: f
            .iter()
            .filter(|(k, _)| *k == "input")
            .map(|(_, v)| PathBuf::from(v))
            .collect(),
        expect: parse(&f, "expect")?.ok_or("--expect is required")?,
        seconds: parse(&f, "seconds")?.ok_or("--seconds is required")?,
        trace: flag(&f, "trace") == Some("1"),
    })
}

/// The child's result as one JSONL line: counts, then every metric.
fn child_row(r: &child::Report) -> String {
    let mut cells = vec![
        ("attempted", r.attempted.to_string()),
        ("failed", r.failed.to_string()),
        (
            "failed_share",
            (r.failed as f64 / r.attempted as f64).to_string(),
        ),
        ("correct", u8::from(r.correct).to_string()),
    ];
    cells.extend(r.metrics.iter().map(|&(k, v)| (k, v.to_string())));
    jsonl_line(&cells)
}

/// One `(key, cell)` row in the `bench::Table` JSONL format.
fn jsonl_line<K: AsRef<str>>(cells: &[(K, String)]) -> String {
    let mut t = Table::new(&cells.iter().map(|(k, _)| k.as_ref()).collect::<Vec<_>>());
    t.row(&cells.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>());
    t.to_jsonl()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_child_row_round_trips_through_the_jsonl_parser() {
        let r = child::Report {
            attempted: 7,
            failed: 1,
            correct: false,
            metrics: vec![
                ("e2e_s", 1.234_567_890_123_4),
                ("run.unexplained_s", 7.6e-6),
            ],
        };
        let line = child_row(&r);
        let row = parse_jsonl_row(line.trim()).expect("parses");
        let num = |k: &str| row_field(&row, k).and_then(JsonValue::as_num);
        assert_eq!(num("attempted"), Some(7.0));
        assert_eq!(num("failed_share"), Some(1.0 / 7.0));
        assert_eq!(num("correct"), Some(0.0));
        // Values keep every digit.
        assert_eq!(num("e2e_s"), Some(1.234_567_890_123_4));
        assert_eq!(num("run.unexplained_s"), Some(7.6e-6));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |key: &str| -> Vec<(String, String)> {
            compare::list_objects(&text, key)
                .expect("a list of flat objects")
                .iter()
                .map(|r| {
                    let s = |k: &str| {
                        row_field(r, k)
                            .and_then(JsonValue::as_str)
                            .map(String::from)
                    };
                    (s("name").expect("name"), s("unit").unwrap_or_default())
                })
                .collect()
        };
        let ours = |ms: &[metrics::Metric]| -> Vec<(String, String)> {
            ms.iter().map(|m| (m.name.into(), m.unit.into())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(&metrics::END_TO_END));
        assert_eq!(listed("per_layer"), ours(&metrics::PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        let bounds = compare::end_to_end_bounds(&text).expect("bounds");
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert!(bounds
            .iter()
            .all(|b| b.bound <= setup.bound && b.bound <= 0.25));
    }
}
