//! Loading and saving relations as plain text — one tuple per line,
//! whitespace- or comma-separated unsigned integers, `#` comments.
//!
//! The format is deliberately trivial (edge lists, SNAP-style dumps, CSV
//! without headers all parse), so real datasets drop straight into the
//! examples and benches. Every read goes through
//! [`read_tuples_streaming`]: a single reused line buffer and tuple
//! scratch, values handed to a callback as they parse. Feeding a flat
//! arena through it into [`Relation::from_flat`] ([`read_relation`])
//! loads 10⁶-edge graphs without a per-line allocation storm.

use crate::{Relation, Schema};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from relation parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable cause.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parse tuples from a reader, invoking `on_tuple` for each one — no
/// per-line or per-tuple allocation (one reused line buffer and tuple
/// scratch). Values split on commas and/or whitespace; blank lines and
/// `#` comments are skipped. Every tuple must match the schema's arity
/// and ranges; tokens must start with an ASCII digit (so `+3`, `-3`, and
/// `0x3` are all rejected rather than silently accepted or misread).
///
/// `on_tuple` may reject a tuple by returning `Err(message)`, which is
/// reported as a [`IoError::Parse`] carrying the offending line number.
/// The slice passed to the callback is only valid for that call.
///
/// Returns the number of tuples parsed.
pub fn read_tuples_streaming<R: Read>(
    reader: R,
    schema: &Schema,
    mut on_tuple: impl FnMut(&[u64]) -> Result<(), String>,
) -> Result<usize, IoError> {
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    let mut tuple: Vec<u64> = Vec::with_capacity(schema.arity());
    let mut lineno = 0usize;
    let mut count = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        tuple.clear();
        for token in body.split(|c: char| c == ',' || c.is_whitespace()) {
            if token.is_empty() {
                continue;
            }
            // `u64::from_str` accepts a leading `+`, so "+3" would load
            // silently as 3; insist on a digit-leading token instead.
            if !token.as_bytes()[0].is_ascii_digit() {
                return Err(IoError::Parse {
                    line: lineno,
                    message: format!(
                        "bad value {token:?}: expected a digit-leading unsigned integer"
                    ),
                });
            }
            let v: u64 = token.parse().map_err(|e| IoError::Parse {
                line: lineno,
                message: format!("bad value {token:?}: {e}"),
            })?;
            tuple.push(v);
        }
        schema
            .check_tuple(&tuple)
            .map_err(|message| IoError::Parse {
                line: lineno,
                message,
            })?;
        on_tuple(&tuple).map_err(|message| IoError::Parse {
            line: lineno,
            message,
        })?;
        count += 1;
    }
    Ok(count)
}

/// Parse a full relation from a reader, streaming straight into the flat
/// tuple arena (one allocation regardless of tuple count).
pub fn read_relation<R: Read>(reader: R, schema: Schema) -> Result<Relation, IoError> {
    let mut flat: Vec<u64> = Vec::new();
    read_tuples_streaming(reader, &schema, |t| {
        flat.extend_from_slice(t);
        Ok(())
    })?;
    Ok(Relation::from_flat(schema, flat))
}

/// Load a relation from a file path.
pub fn load_relation(path: impl AsRef<Path>, schema: Schema) -> Result<Relation, IoError> {
    let file = std::fs::File::open(path)?;
    read_relation(file, schema)
}

/// Write a relation (header comment + tab-separated tuples).
pub fn write_relation<W: Write>(mut w: W, rel: &Relation) -> std::io::Result<()> {
    writeln!(w, "# {} — {} tuples", rel.schema(), rel.len())?;
    for t in rel.tuples() {
        let line: Vec<String> = t.iter().map(|v| v.to_string()).collect();
        writeln!(w, "{}", line.join("\t"))?;
    }
    Ok(())
}

/// Save a relation to a file path.
pub fn save_relation(path: impl AsRef<Path>, rel: &Relation) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_relation(std::io::BufWriter::new(file), rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_mixed_separators_and_comments() {
        let text = "\
# edge list
0, 1
2\t3   # inline comment

1 2
";
        let rel = read_relation(text.as_bytes(), Schema::uniform(&["A", "B"], 3)).unwrap();
        assert_eq!(rel.len(), 3);
        assert!(rel.contains(&[2, 3]));
        assert!(rel.contains(&[1, 2]));
    }

    #[test]
    fn arity_mismatch_reports_line() {
        let text = "0 1\n2 3 4\n";
        let err = read_relation(text.as_bytes(), Schema::uniform(&["A", "B"], 3)).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn out_of_range_reports_line() {
        let text = "0 9\n";
        let err = read_relation(text.as_bytes(), Schema::uniform(&["A", "B"], 3)).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn bad_token_reports_cause() {
        let text = "0 x\n";
        let err = read_relation(text.as_bytes(), Schema::uniform(&["A", "B"], 3)).unwrap_err();
        assert!(err.to_string().contains("\"x\""));
    }

    #[test]
    fn plus_prefixed_token_rejected_with_line() {
        // `"+3".parse::<u64>()` is Ok(3) — the reader must reject it, and
        // the line number must account for comments and blank lines.
        let text = "# header comment\n0 1\n\n2 +3\n";
        let err = read_relation(text.as_bytes(), Schema::uniform(&["A", "B"], 3)).unwrap_err();
        match &err {
            IoError::Parse { line, message } => {
                assert_eq!(*line, 4, "{err}");
                assert!(message.contains("\"+3\""), "{err}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn negative_and_hex_tokens_rejected() {
        for bad in ["0 -1\n", "0 0x3\n", "0 x7\n"] {
            let err = read_relation(bad.as_bytes(), Schema::uniform(&["A", "B"], 3));
            assert!(err.is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn overflowing_token_reports_line_and_cause() {
        // Digit-leading but too large for u64 — must surface the parse
        // failure with the offending line, not wrap or panic.
        let text = "0 1\n2 99999999999999999999999999\n";
        let err = read_relation(text.as_bytes(), Schema::uniform(&["A", "B"], 63)).unwrap_err();
        match &err {
            IoError::Parse { line, message } => {
                assert_eq!(*line, 2, "{err}");
                assert!(
                    message.contains("99999999999999999999999999"),
                    "cause must quote the token: {err}"
                );
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn embedded_nul_is_rejected_not_misread() {
        // A NUL byte is not a separator: "1\0" must fail as one bad
        // token rather than silently loading as 1.
        let text = "0 1\u{0}\n";
        let err = read_relation(text.as_bytes(), Schema::uniform(&["A", "B"], 3)).unwrap_err();
        match &err {
            IoError::Parse { line, .. } => assert_eq!(*line, 1, "{err}"),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn truncated_final_line_still_parses() {
        // No trailing newline: the final tuple must not be dropped.
        let text = "0 1\n2 3";
        let rel = read_relation(text.as_bytes(), Schema::uniform(&["A", "B"], 3)).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&[2, 3]));
    }

    #[test]
    fn crlf_line_endings_parse_clean() {
        // Windows-style dumps: the \r must be stripped, not glued onto
        // the last token, including on a truncated final line.
        let text = "0 1\r\n2,3\r\n# comment\r\n4\t5\r";
        let mut flat = Vec::new();
        let n = read_tuples_streaming(text.as_bytes(), &Schema::uniform(&["A", "B"], 3), |t| {
            flat.extend_from_slice(t);
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 3);
        assert_eq!(flat, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn streaming_reports_count_and_reuses_buffer() {
        let text = "0 1\n2 3\n4 5\n";
        let mut flat = Vec::new();
        let n = read_tuples_streaming(text.as_bytes(), &Schema::uniform(&["A", "B"], 3), |t| {
            flat.extend_from_slice(t);
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 3);
        assert_eq!(flat, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn streaming_callback_error_carries_line() {
        let text = "0 1\n1 1\n";
        let err = read_tuples_streaming(text.as_bytes(), &Schema::uniform(&["A", "B"], 3), |t| {
            if t[0] == t[1] {
                Err("self-loop".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("self-loop"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn roundtrip_through_text() {
        let rel = Relation::new(
            Schema::uniform(&["A", "B", "C"], 4),
            vec![vec![1, 2, 3], vec![0, 0, 15], vec![9, 8, 7]],
        );
        let mut buf = Vec::new();
        write_relation(&mut buf, &rel).unwrap();
        let back = read_relation(buf.as_slice(), Schema::uniform(&["A", "B", "C"], 4)).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("tetris_join_io_test.tsv");
        let rel = Relation::new(Schema::uniform(&["A"], 5), vec![vec![7], vec![31]]);
        save_relation(&path, &rel).unwrap();
        let back = load_relation(&path, Schema::uniform(&["A"], 5)).unwrap();
        assert_eq!(back, rel);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eof_exactly_at_buffer_boundary_keeps_the_last_tuple() {
        // `BufReader` refills its 8 KiB buffer mid-line when a line
        // straddles the boundary; a file that ends EXACTLY at a refill
        // boundary with no trailing newline is the classic case where a
        // sloppy loop drops the final tuple. Pin that every tuple —
        // including the newline-free last one — is parsed and counted.
        let schema = Schema::uniform(&["U", "V"], 63);
        for &target in &[8192usize, 16384] {
            let mut text = String::new();
            let mut rows = 0u64;
            // Fixed 12-byte lines make the boundary arithmetic exact.
            while text.len() + 12 <= target {
                text.push_str(&format!("{:05} {:05}\n", rows, rows + 1));
                rows += 1;
            }
            // Pad the front with a comment so the total hits the target,
            // then strip the final newline: EOF lands on the boundary.
            let pad = target - text.len();
            assert!(pad >= 2, "chosen targets leave room for a comment line");
            let text = format!("#{}\n{text}", " ".repeat(pad - 2));
            let mut bytes = text.into_bytes();
            assert_eq!(bytes.pop(), Some(b'\n'));
            bytes.push(b'0');
            assert_eq!(bytes.len(), target);
            let mut seen = Vec::new();
            let n = read_tuples_streaming(bytes.as_slice(), &schema, |t| {
                seen.push((t[0], t[1]));
                Ok(())
            })
            .unwrap();
            assert_eq!(n as u64, rows, "target={target}: tuple count");
            // The last line lost its newline and gained a padding digit:
            // (rows-1, (rows)*10) — present iff the boundary-straddling
            // final read was not dropped.
            assert_eq!(seen.last(), Some(&(rows - 1, rows * 10)), "target={target}");
        }
    }
}
