//! `tetris_bench compare <runsA…> -- <runsB…>`: set two sets of runs side
//! by side, per workload and end-to-end metric, and give a verdict.
//!
//! Each file holds result rows as `--jsonl` appends them (one
//! `bench::Table::to_jsonl` row per run). Side A is the baseline (the
//! parent commit), side B the candidate. Directions and bounds come from
//! the `end_to_end` list of `BENCHMARK.json` in the current directory.

use std::fmt;

use bench::{parse_jsonl_row, row_field, JsonValue, Table};

use crate::stats::{median, quartiles, spread};

/// How an end-to-end metric may move before it counts as a regression.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// The metric name.
    pub name: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Allowed worsening of the median, as a share of the baseline's.
    pub bound: f64,
}

/// The outcome for one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine in ten pairs and the medians differ by more
    /// than A's interquartile distance — or, with spreads too wide to
    /// judge medians, every B run beats every A run.
    Better,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's interquartile spread exceeds the bound, so a move inside
    /// the bound cannot be told from noise.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judge candidate runs `b` against baseline runs `a` (both non-empty).
/// Pairs for the win count are formed in run order, so alternating the
/// two commits run by run pairs each B run with its neighbouring A run.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let beats = |x: f64, y: f64| {
        if bound.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let (ma, mb) = (median(a), median(b));
    if spread(a) > bound.bound || spread(b) > bound.bound {
        let disjoint = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        return if disjoint {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x)).count();
    let (q1, q3) = quartiles(a);
    if wins * 10 >= pairs * 9 && beats(mb, ma) && (mb - ma).abs() > q3 - q1 {
        return Verdict::Better;
    }
    let worse_by = if bound.lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// A parsed flat JSON object.
pub type Row = Vec<(String, JsonValue)>;

/// The objects of the list under `key` in a `BENCHMARK.json` text. Every
/// list there holds flat objects, so the list is cut at its braces and
/// each object, with the whitespace between tokens removed, read with the
/// bench row parser.
pub fn list_objects(text: &str, key: &str) -> Result<Vec<Row>, String> {
    let at = text
        .find(&format!("\"{key}\""))
        .ok_or_else(|| format!("no {key:?} key"))?;
    let list = &text[at..];
    let (open, close) = match (list.find('['), list.find(']')) {
        (Some(o), Some(c)) if o < c => (o, c),
        _ => return Err(format!("{key:?} is not a list")),
    };
    list[open + 1..close]
        .split_inclusive('}')
        .filter_map(|chunk| chunk.find('{').map(|i| &chunk[i..]))
        .map(|obj| parse_jsonl_row(&compact(obj)).ok_or_else(|| format!("malformed entry {obj}")))
        .collect()
}

/// `obj` without whitespace outside string literals.
fn compact(obj: &str) -> String {
    let (mut out, mut in_str, mut escaped) = (String::new(), false, false);
    for c in obj.chars() {
        if in_str || !c.is_whitespace() {
            out.push(c);
        }
        if in_str {
            in_str = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else {
            in_str = c == '"';
        }
    }
    out
}

/// The bounds of the `end_to_end` list of a `BENCHMARK.json` text.
pub fn end_to_end_bounds(text: &str) -> Result<Vec<Bound>, String> {
    list_objects(text, "end_to_end")?
        .iter()
        .map(|row| {
            let field = |k: &str| row_field(row, k).ok_or_else(|| format!("{row:?}: no {k:?}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                lower_is_better: match field("better")?.as_str() {
                    Some("lower") => true,
                    Some("higher") => false,
                    _ => return Err(format!("{row:?}: better must be lower or higher")),
                },
                bound: field("bound")?.as_num().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn read_rows(files: &[String]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            rows.push(
                parse_jsonl_row(line).ok_or_else(|| format!("{f}:{}: malformed row", i + 1))?,
            );
        }
    }
    Ok(rows)
}

fn values(rows: &[Row], workload: &str, metric: &str) -> Vec<f64> {
    rows.iter()
        .filter(|r| row_field(r, "workload").and_then(JsonValue::as_str) == Some(workload))
        .filter_map(|r| row_field(r, metric).and_then(JsonValue::as_num))
        .collect()
}

/// Print the comparison table; the exit code is 1 when any pair is
/// worse or unresolved, 2 on bad input.
pub fn main(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: tetris_bench compare <runsA.jsonl…> -- <runsB.jsonl…>");
        return 2;
    };
    let (a_files, b_files) = (&args[..split], &args[split + 1..]);
    let loaded = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))
        .and_then(|t| end_to_end_bounds(&t))
        .and_then(|b| Ok((b, read_rows(a_files)?, read_rows(b_files)?)));
    let (bounds, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("tetris_bench compare: {e}");
            return 2;
        }
    };
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(&b) {
        if let Some(w) = row_field(r, "workload").and_then(JsonValue::as_str) {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    let mut table = Table::new(&[
        "workload", "metric", "bound", "n_a", "q1_a", "median_a", "q3_a", "n_b", "q1_b",
        "median_b", "q3_b", "change", "verdict",
    ]);
    let mut bad = 0;
    for w in &workloads {
        for bound in &bounds {
            let (xa, xb) = (values(&a, w, &bound.name), values(&b, w, &bound.name));
            if xa.is_empty() || xb.is_empty() {
                eprintln!("{w} {}: no runs on one side, skipped", bound.name);
                continue;
            }
            let v = verdict(&xa, &xb, bound);
            bad += usize::from(matches!(v, Verdict::Worse | Verdict::Unresolved));
            let ((q1a, q3a), (q1b, q3b)) = (quartiles(&xa), quartiles(&xb));
            let (ma, mb) = (median(&xa), median(&xb));
            table.row(&[
                w.to_string(),
                bound.name.clone(),
                format!("{:.0}%", bound.bound * 100.0),
                xa.len().to_string(),
                format!("{q1a:.6}"),
                format!("{ma:.6}"),
                format!("{q3a:.6}"),
                xb.len().to_string(),
                format!("{q1b:.6}"),
                format!("{mb:.6}"),
                format!("{q3b:.6}"),
                format!("{:+.1}%", (mb - ma) / ma * 100.0),
                v.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "e2e_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    const A: [f64; 10] = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00];

    #[test]
    fn same_runs_are_within_bound() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.03).collect();
        assert_eq!(verdict(&A, &A, &lower(0.1)), Verdict::WithinBound);
        assert_eq!(verdict(&A, &b, &lower(0.1)), Verdict::WithinBound);
    }

    #[test]
    fn a_clear_slowdown_is_worse() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&A, &b, &lower(0.1)), Verdict::Worse);
        // For a higher-is-better metric the same move is a gain.
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(verdict(&A, &b, &higher), Verdict::Better);
    }

    #[test]
    fn a_consistent_gain_is_better() {
        let b: Vec<f64> = A.iter().map(|x| x * 0.9).collect();
        assert_eq!(verdict(&A, &b, &lower(0.1)), Verdict::Better);
        // Winning fewer than nine pairs in ten is not a gain.
        let mut mixed = b.clone();
        mixed[0] = 2.0;
        mixed[1] = 2.0;
        assert_eq!(verdict(&A, &mixed, &lower(0.5)), Verdict::WithinBound);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0];
        assert_eq!(verdict(&A, &noisy, &lower(0.1)), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &A, &lower(0.1)), Verdict::Unresolved);
        // ... unless every candidate run beats every baseline run.
        let fast: Vec<f64> = noisy.iter().map(|x| x * 0.2).collect();
        assert_eq!(verdict(&noisy, &fast, &lower(0.1)), Verdict::Better);
    }

    #[test]
    fn bounds_are_read_from_the_end_to_end_list() {
        let text = r#"{"command": ["x"], "end_to_end": [
            {"name": "e2e_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.2}
        ], "per_layer": [{"name": "n", "unit": "count", "better": "higher"}]}"#;
        let b = end_to_end_bounds(text).expect("parses");
        assert_eq!(b.len(), 2);
        assert_eq!(b[0], lower(0.1));
        assert_eq!(
            (b[1].name.as_str(), b[1].lower_is_better, b[1].bound),
            ("qps", false, 0.2)
        );
        assert!(end_to_end_bounds("{}").is_err());
    }
}
