//! Shared harness utilities for the table/figure binaries: timing,
//! log-log growth-exponent fitting, and aligned table printing.
//!
//! The binaries (`table1`, `fig2`, `figures`) regenerate the paper's
//! evaluation artifacts; see `EXPERIMENTS.md` at the workspace root for
//! the paper-claim-vs-measured record, and `DESIGN.md` §3 for the
//! experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Time a closure, returning `(result, seconds)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// growth exponent of a parameter sweep. Points with non-positive values
/// are skipped; returns `NaN` with fewer than two usable points.
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return f64::NAN;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// A minimal aligned-table printer for harness output, with JSON-lines
/// export for downstream analysis (one object per row, keyed by header).
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Serialize as JSON lines: one object per row with header keys.
    /// Numeric-looking cells become JSON numbers; others stay strings.
    /// (Hand-rolled writer: the build runs offline without serde_json.)
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push('{');
            for (i, (key, cell)) in self.header.iter().zip(row).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(key));
                out.push(':');
                out.push_str(&json_cell(cell));
            }
            out.push_str("}\n");
        }
        out
    }

    /// If `TETRIS_BENCH_JSONL` is set, append this table's rows (tagged
    /// with `experiment`) to that file. Harness binaries call this after
    /// printing, so sweeps can be collected machine-readably.
    pub fn export(&self, experiment: &str) {
        let Ok(path) = std::env::var("TETRIS_BENCH_JSONL") else {
            return;
        };
        use std::io::Write;
        let mut tagged = Table::new(
            &std::iter::once("experiment")
                .chain(self.header.iter().map(|s| s.as_str()))
                .collect::<Vec<_>>(),
        );
        for row in &self.rows {
            let mut cells = vec![experiment.to_string()];
            cells.extend(row.iter().cloned());
            tagged.row(&cells);
        }
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = f.write_all(tagged.to_jsonl().as_bytes());
        }
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, s)| format!("{:>w$}", s, w = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// A scalar cell of a parsed JSONL row.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A JSON number.
    Num(f64),
    /// A JSON string.
    Str(String),
    /// JSON `null`: a measurement that could not be taken (e.g. peak
    /// RSS off-procfs). Distinct from `0` so downstream ratchets can
    /// skip the row instead of comparing against a fabricated number.
    Null,
}

impl JsonValue {
    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse one flat JSON object of the shape [`Table::to_jsonl`] emits
/// (string keys; number or string values; no nesting). Returns key/value
/// pairs in order, or `None` on malformed input. This is the read side of
/// the hand-rolled writer above — the build runs offline without
/// serde_json, and `BENCH_*.json` snapshots only ever contain this subset.
pub fn parse_jsonl_row(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut chars = line.trim().chars().peekable();
    let mut out = Vec::new();
    if chars.next()? != '{' {
        return None;
    }
    loop {
        match chars.peek()? {
            '}' => {
                chars.next();
                return if chars.next().is_none() {
                    Some(out)
                } else {
                    None
                };
            }
            ',' => {
                chars.next();
            }
            _ => {}
        }
        let key = parse_json_str(&mut chars)?;
        if chars.next()? != ':' {
            return None;
        }
        let value = if *chars.peek()? == '"' {
            JsonValue::Str(parse_json_str(&mut chars)?)
        } else {
            let mut tok = String::new();
            while matches!(chars.peek(), Some(c) if !matches!(c, ',' | '}')) {
                tok.push(chars.next()?);
            }
            match tok.trim() {
                "null" => JsonValue::Null,
                num => JsonValue::Num(num.parse().ok()?),
            }
        };
        out.push((key, value));
    }
}

/// Parse a JSON string literal (cursor on the opening quote).
fn parse_json_str(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut s = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(s),
            '\\' => match chars.next()? {
                '"' => s.push('"'),
                '\\' => s.push('\\'),
                'n' => s.push('\n'),
                'r' => s.push('\r'),
                't' => s.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    s.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => s.push(c),
        }
    }
}

/// Look up a field of a parsed row.
pub fn row_field<'a>(row: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    row.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Encode a table cell: integers and finite floats are re-serialized
/// from the parsed value (so `"007"` → `7` and `"+.5"` → `0.5`, always
/// valid JSON numbers); the literal cell `"null"` becomes JSON `null`
/// (a measurement that could not be taken — see
/// [`JsonValue::Null`]); everything else becomes an escaped JSON
/// string.
fn json_cell(cell: &str) -> String {
    if cell == "null" {
        return "null".to_string();
    }
    if let Ok(i) = cell.parse::<i64>() {
        return i.to_string();
    }
    if let Ok(f) = cell.parse::<f64>() {
        if f.is_finite() {
            return f.to_string();
        }
    }
    json_string(cell)
}

/// Escape a string per RFC 8259.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident-set size of this process in bytes (Linux `VmHWM` from
/// procfs; `None` on other platforms or when procfs is unavailable).
/// Monotone over the process lifetime — per-row readings in a sweep
/// report the high-water mark up to that row.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Format a float compactly (3 significant-ish digits).
pub fn fmt_f(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_of_perfect_power_law() {
        let xs: [f64; 4] = [10.0, 20.0, 40.0, 80.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| 3.0 * x.powf(1.5)).collect();
        let e = fit_exponent(&xs, &ys);
        assert!((e - 1.5).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn exponent_skips_zeroes() {
        let e = fit_exponent(&[1.0, 2.0, 4.0], &[0.0, 8.0, 64.0]);
        assert!((e - 3.0).abs() < 1e-9);
        assert!(fit_exponent(&[1.0], &[2.0]).is_nan());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["N", "time"]);
        t.row(&["10".into(), "1.5".into()]);
        t.row(&["1000".into(), "2.25".into()]);
        let s = t.render();
        assert!(s.contains("   N"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn jsonl_types_cells() {
        let mut t = Table::new(&["N", "time", "label"]);
        t.row(&["10".into(), "1.5".into(), "fast".into()]);
        let line = t.to_jsonl();
        assert_eq!(line.trim(), r#"{"N":10,"time":1.5,"label":"fast"}"#);
    }

    #[test]
    fn jsonl_normalizes_nonstandard_numbers() {
        let mut t = Table::new(&["a", "b", "c", "d"]);
        t.row(&["007".into(), "+5".into(), ".5".into(), "inf".into()]);
        assert_eq!(t.to_jsonl().trim(), r#"{"a":7,"b":5,"c":0.5,"d":"inf"}"#);
    }

    #[test]
    fn jsonl_escapes_strings() {
        let mut t = Table::new(&["msg"]);
        t.row(&["say \"hi\"\n".into()]);
        assert_eq!(t.to_jsonl().trim(), r#"{"msg":"say \"hi\"\n"}"#);
    }

    #[test]
    fn export_writes_tagged_rows() {
        let path = std::env::temp_dir().join("tetris_bench_jsonl_test.jsonl");
        let _ = std::fs::remove_file(&path);
        std::env::set_var("TETRIS_BENCH_JSONL", &path);
        let mut t = Table::new(&["N"]);
        t.row(&["7".into()]);
        t.export("unit-test");
        std::env::remove_var("TETRIS_BENCH_JSONL");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.trim(), r#"{"experiment":"unit-test","N":7}"#);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn timing_returns_result() {
        let (v, secs) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn jsonl_roundtrips_through_the_parser() {
        let mut t = Table::new(&["N", "time", "label"]);
        t.row(&["10".into(), "1.5".into(), "fast \"x\"\n".into()]);
        let line = t.to_jsonl();
        let row = parse_jsonl_row(line.trim()).expect("parses");
        assert_eq!(row_field(&row, "N").unwrap().as_num(), Some(10.0));
        assert_eq!(row_field(&row, "time").unwrap().as_num(), Some(1.5));
        assert_eq!(
            row_field(&row, "label").unwrap().as_str(),
            Some("fast \"x\"\n")
        );
        assert!(row_field(&row, "missing").is_none());
    }

    #[test]
    fn parser_rejects_malformed_rows() {
        assert!(parse_jsonl_row("not json").is_none());
        assert!(parse_jsonl_row("{\"a\":1").is_none());
        assert!(parse_jsonl_row("{\"a\":}").is_none());
        assert!(parse_jsonl_row("{\"a\":1} trailing").is_none());
        // Empty object is fine.
        assert_eq!(parse_jsonl_row("{}"), Some(vec![]));
        // `null` is a value; other bare words are still rejected.
        assert!(parse_jsonl_row("{\"a\":nil}").is_none());
    }

    #[test]
    fn null_cells_roundtrip_as_json_null() {
        // An unmeasurable reading (e.g. peak RSS off-procfs) is emitted
        // as the literal `null`, not a fabricated 0 — and parses back as
        // `JsonValue::Null`, which is neither a number nor a string.
        let mut t = Table::new(&["N", "peak_rss_mb"]);
        t.row(&["10".into(), "null".into()]);
        let line = t.to_jsonl();
        assert!(
            line.contains("\"peak_rss_mb\":null"),
            "expected a bare null in {line:?}"
        );
        let row = parse_jsonl_row(line.trim()).expect("parses");
        let rss = row_field(&row, "peak_rss_mb").unwrap();
        assert!(matches!(rss, JsonValue::Null));
        assert_eq!(rss.as_num(), None);
        assert_eq!(rss.as_str(), None);
    }
}
