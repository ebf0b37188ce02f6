//! Structure file formats: PDB, SDF (MDL V2000), MOL2 (Tripos), PDBQT.
//!
//! All readers/writers operate on strings: the workflow engine stages file
//! *contents* through its (simulated or real) shared filesystem, and the
//! formats layer never touches the OS.

pub mod mol2;
pub mod pdb;
pub mod pdbqt;
pub mod sdf;

use std::fmt;

/// Error from parsing a structure file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number where the problem was found (0 = whole file).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// Construct with a 1-based line number (0 = whole file).
    pub fn new(line: usize, message: impl Into<String>) -> ParseError {
        ParseError { line, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "parse error: {}", self.message)
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse a float from a fixed-width field, tolerating surrounding spaces.
pub(crate) fn field_f64(s: &str, line: usize, what: &str) -> Result<f64, ParseError> {
    s.trim().parse::<f64>().map_err(|_| ParseError::new(line, format!("bad {what}: {s:?}")))
}

/// Parse an unsigned integer from a fixed-width field.
pub(crate) fn field_u32(s: &str, line: usize, what: &str) -> Result<u32, ParseError> {
    s.trim().parse::<u32>().map_err(|_| ParseError::new(line, format!("bad {what}: {s:?}")))
}

/// Slice a line by byte columns, clamped to the line length (PDB lines are
/// frequently right-trimmed). A column boundary inside a multi-byte
/// character moves back to that character's start: such a field never
/// parses, and the reader reports it instead of panicking.
pub(crate) fn cols(line: &str, start: usize, end: usize) -> &str {
    let floor = |mut i: usize| {
        i = i.min(line.len());
        while !line.is_char_boundary(i) {
            i -= 1;
        }
        i
    };
    let (start, end) = (floor(start), floor(end));
    if start >= end {
        ""
    } else {
        &line[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cols_clamps() {
        assert_eq!(cols("abcdef", 1, 3), "bc");
        assert_eq!(cols("ab", 1, 5), "b");
        assert_eq!(cols("ab", 5, 9), "");
        // a boundary inside 'é' (bytes 1..3) moves to its start
        assert_eq!(cols("aébc", 0, 2), "a");
        assert_eq!(cols("aébc", 2, 4), "éb");
        assert_eq!(cols("aébc", 2, 2), "");
    }

    #[test]
    fn field_parsers() {
        assert_eq!(field_f64(" 1.5 ", 1, "x").unwrap(), 1.5);
        assert!(field_f64("zz", 3, "x").unwrap_err().to_string().contains("line 3"));
        assert_eq!(field_u32(" 42", 1, "n").unwrap(), 42);
        assert!(field_u32("-1", 1, "n").is_err());
    }

    #[test]
    fn error_display_whole_file() {
        let e = ParseError::new(0, "empty");
        assert_eq!(e.to_string(), "parse error: empty");
    }
}
